/// @file test_kasched.cpp
/// @brief kasched: the RMA deque's exactly-once claim guarantee under
/// concurrent stealing, the bit ledger's streamed checksum, OR-merge and
/// owned-pending walk, task-set conservation through the NBX rounds, chaos
/// kills mid-steal and mid-round with ledger-driven re-queueing, and the
/// scheduler's profile counters and tracing spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/kasched/scheduler.hpp"
#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using namespace apps::kasched;
using kamping::FullCommunicator;
using xmpi::World;

// --- Deque ----------------------------------------------------------------

TEST(KaschedDeque, OwnerPushPopIsLifoAndBounded) {
    World::run(1, [] {
        FullCommunicator comm;
        auto storage = RmaDeque::make_storage(8);
        auto win = comm.win_create(storage);
        RmaDeque deque(win, 8, 0);
        {
            auto epoch = win.lock_guard(0, kamping::LockType::shared);
            EXPECT_EQ(deque.pop(), no_task); // empty
            for (std::uint64_t i = 0; i < 8; ++i) {
                EXPECT_TRUE(deque.push(100 + i));
            }
            EXPECT_FALSE(deque.push(999)); // full: ring never wraps onto live slots
            EXPECT_EQ(deque.size(), 8u);
            for (std::uint64_t i = 8; i-- > 0;) {
                EXPECT_EQ(deque.pop(), 100 + i); // owner end is LIFO
            }
            EXPECT_EQ(deque.pop(), no_task);
            // The ring is reusable after a full drain.
            EXPECT_TRUE(deque.push(7));
            EXPECT_EQ(deque.pop(), 7u);
            epoch.close();
        }
        win.free();
    });
}

TEST(KaschedDeque, StealTakesTheColdEndFifo) {
    World::run(2, [] {
        FullCommunicator comm;
        int const rank = comm.rank();
        auto storage = RmaDeque::make_storage(16);
        auto win = comm.win_create(storage);
        RmaDeque deque(win, 16, rank);
        if (rank == 0) {
            auto epoch = win.lock_guard(0, kamping::LockType::shared);
            for (std::uint64_t i = 0; i < 4; ++i) {
                ASSERT_TRUE(deque.push(i));
            }
            epoch.close();
        }
        comm.barrier();
        if (rank == 1) {
            auto epoch = win.lock_guard(0, kamping::LockType::shared);
            EXPECT_EQ(deque.size_of(0), 4u);
            EXPECT_EQ(deque.steal_from(0), 0u); // oldest first
            EXPECT_EQ(deque.steal_from(0), 1u);
            epoch.close();
        }
        comm.barrier();
        if (rank == 0) {
            auto epoch = win.lock_guard(0, kamping::LockType::shared);
            EXPECT_EQ(deque.pop(), 3u); // hot end untouched by the thief
            EXPECT_EQ(deque.pop(), 2u);
            EXPECT_EQ(deque.pop(), no_task);
            epoch.close();
        }
        win.free();
    });
}

/// Every pushed id must be claimed by exactly one pop or steal, no matter
/// how pops and steals race — the linearizability core of the scheduler.
TEST(KaschedDeque, ConcurrentStealsClaimEachTaskExactlyOnce) {
    constexpr int p = 4;
    constexpr std::uint64_t n = 20000;
    constexpr std::uint32_t capacity = 1 << 15; // > n: every push succeeds
    std::atomic<std::uint64_t> claimed_count{0};
    std::mutex claimed_mutex;
    std::vector<std::uint64_t> claimed;
    claimed.reserve(n);

    World::run(p, [&] {
        FullCommunicator comm;
        int const rank = comm.rank();
        auto storage = RmaDeque::make_storage(capacity);
        auto win = comm.win_create(storage);
        RmaDeque deque(win, capacity, rank);
        std::vector<std::uint64_t> mine;

        if (rank == 0) {
            auto epoch = win.lock_guard(0, kamping::LockType::shared);
            // Interleave pushes with pops so the owner races the thieves at
            // both ends, including the one-element top-CAS showdown.
            for (std::uint64_t i = 0; i < n; ++i) {
                ASSERT_TRUE(deque.push(i));
                if (i % 3 == 0) {
                    if (auto const id = deque.pop(); id != no_task) {
                        mine.push_back(id);
                    }
                }
            }
            while (claimed_count.load() + mine.size() < n) {
                if (auto const id = deque.pop(); id != no_task) {
                    mine.push_back(id);
                } else {
                    std::this_thread::yield();
                }
            }
        } else {
            while (claimed_count.load() < n) {
                std::uint64_t got = no_task;
                {
                    auto epoch = win.lock_guard(0, kamping::LockType::shared);
                    got = deque.steal_from(0);
                    epoch.close();
                }
                if (got != no_task) {
                    mine.push_back(got);
                    claimed_count.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        }
        {
            std::lock_guard<std::mutex> lock(claimed_mutex);
            claimed.insert(claimed.end(), mine.begin(), mine.end());
        }
        if (rank == 0) {
            claimed_count.fetch_add(mine.size()); // releases the thieves
        }
        comm.barrier();
        win.free();
    });

    ASSERT_EQ(claimed.size(), n); // no loss, no double-claim
    std::sort(claimed.begin(), claimed.end());
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(claimed[i], i);
    }
}

// --- Ledger ---------------------------------------------------------------

/// A ledger over @c n tasks with a seeded random done-set (about half done).
Ledger random_ledger(std::uint64_t n, std::uint64_t seed) {
    Ledger ledger(n);
    std::mt19937_64 rng(seed);
    for (TaskId id = 0; id < n; ++id) {
        if (rng() % 2 == 0) {
            EXPECT_TRUE(ledger.mark_done(id));
        }
    }
    return ledger;
}

/// The ledger's contributions as one materialised array.
std::vector<double> materialise(Ledger const& ledger, std::uint64_t n) {
    std::vector<double> values(n);
    for (TaskId id = 0; id < n; ++id) {
        values[id] = ledger.is_done(id) ? contribution(id) : 0.0;
    }
    return values;
}

TEST(KaschedLedger, StreamedChecksumMatchesTheMaterialisedTreeBitForBit) {
    std::plus<double> const plus;
    for (std::uint64_t const n: {0ull, 1ull, 4095ull, 4096ull, 4097ull, (1ull << 16) + 3}) {
        for (std::uint64_t const seed: {1ull, 2ull, 3ull}) {
            Ledger const ledger = random_ledger(n, seed);
            auto const values = materialise(ledger, n);
            // The whole array decomposed and stitched at once, and the tree
            // evaluated straight from its definition.
            double materialised = 0.0;
            double direct = 0.0;
            if (n > 0) {
                auto const partials = apps::repro::decompose(values.data(), 0, n, plus);
                materialised = apps::repro::stitch_all(partials.data(), partials.size(), n, plus);
                direct = apps::repro::tree_reduce(values.data(), 0, std::bit_ceil(n), n, plus);
            }
            auto const streamed = std::bit_cast<std::uint64_t>(ledger.checksum());
            EXPECT_EQ(streamed, std::bit_cast<std::uint64_t>(materialised)) << "n = " << n;
            EXPECT_EQ(streamed, std::bit_cast<std::uint64_t>(direct)) << "n = " << n;
        }
    }
}

TEST(KaschedLedger, MergeOrsReplicasAndRecountsDone) {
    constexpr std::uint64_t n = 1000; // the last word is partly padding
    Ledger merged(n);
    Ledger other(n);
    std::uint64_t expected = 0;
    for (TaskId id = 0; id < n; ++id) {
        if (id % 3 == 0) {
            merged.mark_done(id);
        }
        if (id % 5 == 0) {
            other.mark_done(id);
        }
        expected += id % 3 == 0 || id % 5 == 0;
    }
    merged.merge(other.words());
    EXPECT_EQ(merged.done_count(), expected);
    for (TaskId id = 0; id < n; ++id) {
        EXPECT_EQ(merged.is_done(id), id % 3 == 0 || id % 5 == 0) << "id " << id;
    }
    merged.merge(other.words()); // idempotent
    EXPECT_EQ(merged.done_count(), expected);
    EXPECT_FALSE(merged.mark_done(10)); // merged in: now a duplicate
    EXPECT_TRUE(merged.mark_done(1));
    EXPECT_EQ(merged.done_count(), expected + 1);
}

TEST(KaschedLedger, OwnedPendingWalkMatchesTheFilteredScan) {
    constexpr int skew = 2;
    for (std::uint64_t const n: {0ull, 1ull, 63ull, 64ull, 65ull, 4097ull}) {
        Ledger const ledger = random_ledger(n, n + 7);
        for (int const p: {1, 3, 4}) {
            for (int rank = 0; rank < p; ++rank) {
                std::vector<TaskId> expected;
                for (TaskId id = 0; id < n; ++id) {
                    if (!ledger.is_done(id) && owner_of(id, p, skew) == rank) {
                        expected.push_back(id);
                    }
                }
                std::vector<TaskId> walked;
                ledger.for_each_owned_pending(
                    rank, p, skew, [&](TaskId id) { walked.push_back(id); });
                EXPECT_EQ(walked, expected) << "n = " << n << ", p = " << p << ", rank " << rank;
            }
        }
    }
}

// --- Scheduler ------------------------------------------------------------

Config small_config() {
    Config config;
    config.n_tasks = 1 << 12;
    config.deque_capacity = 1 << 10;
    config.tasks_per_round = 512;
    config.work_per_task = 4;
    return config;
}

/// Conservation through submission and NBX completion rounds: with no
/// failure, executed tasks across ranks match the submitted set exactly
/// (nothing lost in a deque or an in-flight batch, nothing run twice).
TEST(KaschedScheduler, ConservesTheTaskSetWithoutFailures) {
    constexpr int p = 4;
    auto const config = small_config();
    std::mutex stats_mutex;
    std::vector<Stats> all_stats;

    World::run(p, [&] {
        FullCommunicator comm;
        auto const stats = run_scheduler(comm, config);
        std::lock_guard<std::mutex> lock(stats_mutex);
        all_stats.push_back(stats);
    });

    ASSERT_EQ(all_stats.size(), static_cast<std::size_t>(p));
    std::uint64_t executed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t stolen = 0;
    for (auto const& stats: all_stats) {
        executed += stats.tasks_executed;
        submitted += stats.submitted;
        stolen += stats.steals_succeeded;
        EXPECT_EQ(stats.done_tasks, config.n_tasks); // replica complete
        EXPECT_TRUE(stats.checksum_converged);
        EXPECT_EQ(stats.duplicate_completions, 0u); // nothing ran twice
        EXPECT_EQ(stats.resyncs, 0u);
    }
    EXPECT_EQ(submitted, config.n_tasks);
    EXPECT_EQ(executed, config.n_tasks); // executed + queued == submitted, queue empty
    EXPECT_GT(stolen, 0u); // the skewed placement forced real steals
    for (auto const& stats: all_stats) {
        EXPECT_EQ(stats.checksum, all_stats.front().checksum); // bit-identical
    }
}

TEST(KaschedScheduler, SingleRankRunsWithoutStealing) {
    auto config = small_config();
    config.n_tasks = 1 << 10;
    World::run(1, [&] {
        FullCommunicator comm;
        auto const stats = run_scheduler(comm, config);
        EXPECT_EQ(stats.done_tasks, config.n_tasks);
        EXPECT_EQ(stats.tasks_executed, config.n_tasks);
        EXPECT_EQ(stats.steals_attempted, 0u);
        EXPECT_TRUE(stats.checksum_converged);
    });
}

/// Runs the scheduler on an elastic world with a chaos kill armed, and
/// checks the survivors conserved the task set through the recovery merge.
void run_chaos_scheduler(int p, int victim, xmpi::chaos::FaultPlan plan) {
    auto const config = small_config();
    std::mutex stats_mutex;
    std::vector<Stats> survivor_stats;
    double reference = 0.0;
    {
        xmpi::chaos::arm_next_world(std::move(plan));
        World world(p, {}, p); // capacity makes the world elastic
        std::vector<std::thread> threads;
        threads.reserve(p);
        for (int rank = 0; rank < p; ++rank) {
            threads.emplace_back([&world, rank, &config, &stats_mutex, &survivor_stats] {
                world.attach_current_thread(rank);
                try {
                    FullCommunicator comm;
                    auto const stats = run_scheduler(comm, config);
                    std::lock_guard<std::mutex> lock(stats_mutex);
                    survivor_stats.push_back(stats);
                } catch (xmpi::RankKilled const&) {
                    // The victim: excluded by the next membership transition.
                }
                world.detach_current_thread();
            });
        }
        for (auto& thread: threads) {
            thread.join();
        }
        EXPECT_TRUE(world.is_failed(victim)); // the armed fault really fired
    }
    // An un-killed control run of the same config: the checksum the
    // survivors must still reach (it is placement-independent).
    World::run(1, [&] {
        FullCommunicator comm;
        reference = run_scheduler(comm, config).checksum;
    });

    ASSERT_EQ(survivor_stats.size(), static_cast<std::size_t>(p - 1));
    std::uint64_t requeued = 0;
    for (auto const& stats: survivor_stats) {
        EXPECT_EQ(stats.done_tasks, config.n_tasks);
        EXPECT_TRUE(stats.checksum_converged);
        EXPECT_GE(stats.resyncs, 1u); // the failure was ridden, not avoided
        // The full-run checksum is placement-independent, so recovery must
        // land on the exact bits the undisturbed run produces.
        EXPECT_EQ(stats.checksum, reference);
        requeued += stats.requeued_after_failure;
    }
    // The kill happened mid-run, so some of the dead rank's tasks were still
    // pending and had to be re-queued by the survivors.
    EXPECT_GT(requeued, 0u);
}

TEST(KaschedScheduler, RecoversFromAKillMidSteal) {
    constexpr int p = 4;
    constexpr int victim = 1;
    // compare_and_swap is the steal's claiming atomic (the owner only CASes
    // on a last-element pop), so an early nth lands inside a steal attempt.
    run_chaos_scheduler(
        p, victim,
        xmpi::chaos::FaultPlan(7).kill_at_call(victim, xmpi::chaos::Call::compare_and_swap, 10));
}

TEST(KaschedScheduler, RecoversFromAKillMidCompletionRound) {
    constexpr int p = 4;
    constexpr int victim = 2;
    run_chaos_scheduler(
        p, victim,
        xmpi::chaos::FaultPlan(11).kill_at_call(victim, xmpi::chaos::Call::issend, 2));
}

// --- Counters and spans ---------------------------------------------------

TEST(KaschedProfile, CountersMirrorTheStats) {
    constexpr int p = 2;
    auto const config = small_config();
    World::run(p, [&] {
        FullCommunicator comm;
        auto const before = xmpi::profile::my_snapshot();
        auto const stats = run_scheduler(comm, config);
        auto const after = xmpi::profile::my_snapshot();
        EXPECT_EQ(
            after.sched_tasks_executed - before.sched_tasks_executed, stats.tasks_executed);
        EXPECT_EQ(
            after.sched_steals_attempted - before.sched_steals_attempted,
            stats.steals_attempted);
        EXPECT_EQ(
            after.sched_steals_succeeded - before.sched_steals_succeeded,
            stats.steals_succeeded);
        EXPECT_EQ(after.sched_requeue_after_failure, before.sched_requeue_after_failure);
        // Every deque access is an RMA atomic; even a steal-free rank reads
        // its own top on each push/pop.
        EXPECT_GT(after.rma_atomics, before.rma_atomics);
        EXPECT_GT(after[xmpi::profile::Call::fetch_and_op], 0u);
    });
}

TEST(KaschedProfile, PhasesEmitTracingSpans) {
    constexpr int p = 2;
    auto config = small_config();
    config.n_tasks = 1 << 10;
    xmpi::profile::clear_spans();
    xmpi::profile::set_tracing_enabled(true);
    World::run(p, [&] {
        FullCommunicator comm;
        (void)run_scheduler(comm, config);
    });
    xmpi::profile::set_tracing_enabled(false);

    int submit = 0;
    int work = 0;
    int round = 0;
    for (auto const& span: xmpi::profile::take_spans()) {
        std::string_view const op(span.op);
        submit += op == "sched_submit";
        work += op == "sched_work";
        round += op == "sched_round";
    }
    EXPECT_EQ(submit, p);  // one submission phase per rank
    EXPECT_GE(work, p);    // at least one work phase per rank
    EXPECT_GE(round, p);
}

} // namespace
