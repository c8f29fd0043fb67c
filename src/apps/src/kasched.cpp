/// @file kasched.cpp
/// @brief The kasched scheduler loop: submission, work/steal phases, NBX
/// completion rounds, and elastic recovery. See scheduler.hpp and DESIGN.md.
#include "apps/kasched/scheduler.hpp"

#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xmpi/profile.hpp"
#include "xmpi/xmpi.hpp"

namespace apps::kasched {
namespace {

/// RAII per-phase tracing span ("sched_submit" / "sched_recover" /
/// "sched_work" / "sched_round"); records nothing while tracing is off.
class PhaseSpan {
public:
    explicit PhaseSpan(char const* op)
        : active_(xmpi::profile::tracing_enabled()),
          op_(op) {
        if (active_) {
            start_ = XMPI_Wtime();
        }
    }
    PhaseSpan(PhaseSpan const&) = delete;
    PhaseSpan& operator=(PhaseSpan const&) = delete;
    ~PhaseSpan() {
        if (active_) {
            xmpi::profile::Span span;
            span.op = op_;
            span.start_s = start_;
            span.duration_s = XMPI_Wtime() - start_;
            try {
                xmpi::profile::record_span(span);
            } catch (...) {
                // Tracing must never mask the scheduler's own exception.
            }
        }
    }

private:
    bool active_;
    char const* op_;
    double start_ = 0.0;
};

/// Deterministic per-rank-per-epoch RNG for victim selection (no global
/// entropy: reruns with one seed are bit-reproducible, which the chaos
/// tests rely on).
class VictimRng {
public:
    VictimRng(std::uint64_t seed, int rank, std::uint64_t epoch)
        : state_(task_hash(seed ^ task_hash(static_cast<std::uint64_t>(rank) + 0x51ed2701 * (epoch + 1)))) {}

    std::uint64_t next() { return state_ = task_hash(state_); }

    /// A rank in [0, p) other than @c self (requires p >= 2).
    int victim(int p, int self) {
        auto const pick = static_cast<int>(next() % static_cast<std::uint64_t>(p - 1));
        return pick >= self ? pick + 1 : pick;
    }

private:
    std::uint64_t state_;
};

/// Owner-side tasks the window ring has no room for, as whole batches (a
/// received submission batch moves in uncopied). A refill drops every batch
/// it empties, so an empty overflow after it means no task waits here.
using Overflow = std::vector<std::vector<TaskId>>;

void refill_from_overflow(RmaDeque& deque, Overflow& overflow) {
    while (!overflow.empty()) {
        auto& batch = overflow.back();
        while (!batch.empty() && deque.push(batch.back())) {
            batch.pop_back();
        }
        if (!batch.empty()) {
            return; // the ring is full
        }
        overflow.pop_back();
    }
}

/// One randomized two-choice steal attempt: probe two victims' deque sizes
/// under shared locks, then raid the fuller one. @return no_task on an
/// empty-looking victim or a lost claiming CAS.
TaskId try_steal(
    RmaDeque& deque, RmaDeque::Window& win, VictimRng& rng, int p, int self, Stats& stats) {
    ++stats.steals_attempted;
    xmpi::profile::my_counters().sched_steals_attempted.fetch_add(1, std::memory_order_relaxed);
    int victim = rng.victim(p, self);
    if (p > 2) {
        int const second = rng.victim(p, self);
        if (second != victim) {
            std::uint64_t size_first = 0;
            std::uint64_t size_second = 0;
            {
                auto epoch = win.lock_guard(victim, kamping::LockType::shared);
                size_first = deque.size_of(victim);
                epoch.close();
            }
            {
                auto epoch = win.lock_guard(second, kamping::LockType::shared);
                size_second = deque.size_of(second);
                epoch.close();
            }
            if (size_second > size_first) {
                victim = second;
            }
        }
    }
    TaskId stolen = no_task;
    {
        auto epoch = win.lock_guard(victim, kamping::LockType::shared);
        stolen = deque.steal_from(victim);
        epoch.close();
    }
    if (stolen != no_task) {
        ++stats.steals_succeeded;
        xmpi::profile::my_counters().sched_steals_succeeded.fetch_add(
            1, std::memory_order_relaxed);
    }
    return stolen;
}

} // namespace

Stats run_scheduler(kamping::FullCommunicator& comm, Config const& config) {
    Stats stats;
    Ledger ledger(config.n_tasks);
    bool first_attempt = true;

    comm.with_elastic([&](kamping::FullCommunicator& c) {
        // Flip the attempt flag *before* anything that can throw: after a
        // mid-submission failure the survivors may have reached different
        // points, and they must still all agree on taking the recovery path
        // (which is self-healing — it re-derives the full pending set from
        // the ledger, independent of how far submission got).
        bool const initial = first_attempt;
        first_attempt = false;

        int const p = c.size_signed();
        int const self = c.rank();

        // --- Setup: ledger convergence (recovery only) -------------------
        if (!initial) {
            // A rank died (or the membership moved) mid-run: OR-merge the
            // survivors' replicas so any completion at least one survivor
            // witnessed becomes global, then re-queue the rest below.
            PhaseSpan span("sched_recover");
            auto const merged = c.allreduce(
                kamping::send_buf(ledger.words()), kamping::op(std::bit_or<>{}));
            ledger.merge(merged);
            ++stats.resyncs;
        }

        // --- Per-epoch deque window --------------------------------------
        // win_allocate, not win_create(stack storage): a chaos kill unwinds
        // the victim's stack while laggard survivors may still have atomics
        // in flight at its deque — window-owned memory outlives every
        // reference, caller-scoped memory does not.
        auto win = c.win_allocate<std::uint64_t>(RmaDeque::storage_slots(config.deque_capacity));
        RmaDeque deque(win, config.deque_capacity, self);
        Overflow overflow;

        if (initial) {
            // --- Initial submission: NBX ids to their home owners, in
            // batches sized before they are filled (none reallocates). ----
            PhaseSpan span("sched_submit");
            std::uint64_t const lo =
                config.n_tasks * static_cast<std::uint64_t>(self) / static_cast<std::uint64_t>(p);
            std::uint64_t const hi = config.n_tasks * (static_cast<std::uint64_t>(self) + 1)
                                     / static_cast<std::uint64_t>(p);
            std::unordered_map<int, std::size_t> counts;
            for (TaskId id = lo; id < hi; ++id) {
                ++counts[owner_of(id, p, config.skew_shares)];
            }
            std::unordered_map<int, std::vector<std::uint64_t>> outbox;
            for (auto const& [owner, count]: counts) {
                outbox[owner].reserve(count);
            }
            for (TaskId id = lo; id < hi; ++id) {
                outbox[owner_of(id, p, config.skew_shares)].push_back(id);
            }
            stats.submitted += hi - lo;
            if (auto local = outbox.extract(self)) {
                overflow.push_back(std::move(local.mapped())); // no wire for self-submissions
            }
            c.alltoallv_sparse(outbox, [&](int /*source*/, std::vector<std::uint64_t> ids) {
                overflow.push_back(std::move(ids));
            });
        } else {
            // --- Recovery re-queue: every task no survivor saw complete is
            // re-queued under the new membership's placement. -------------
            PhaseSpan span("sched_recover");
            auto& requeue = overflow.emplace_back();
            ledger.for_each_owned_pending(
                self, p, config.skew_shares, [&](TaskId id) { requeue.push_back(id); });
            stats.requeued_after_failure += requeue.size();
            xmpi::profile::my_counters().sched_requeue_after_failure.fetch_add(
                requeue.size(), std::memory_order_relaxed);
        }

        // --- Work / round loop -------------------------------------------
        std::uint64_t const epoch = c.membership_epoch();
        VictimRng rng(config.seed, self, epoch);
        std::vector<std::uint64_t> round_completions;
        while (true) {
            {
                PhaseSpan span("sched_work");
                auto self_epoch = win.lock_guard(self, kamping::LockType::shared);
                std::uint32_t executed_this_round = 0;
                std::uint32_t failed_steals = 0;
                while (executed_this_round < config.tasks_per_round) {
                    refill_from_overflow(deque, overflow);
                    TaskId id = deque.pop();
                    if (id == no_task && p > 1) {
                        id = try_steal(deque, win, rng, p, self, stats);
                    }
                    if (id == no_task) {
                        if (overflow.empty() && (p == 1 || ++failed_steals > config.max_failed_steals)) {
                            break; // starved: hand progress to the round
                        }
                        // Exponential backoff: give victims (time-sliced
                        // onto the same cores) room to produce work.
                        for (std::uint32_t i = 0; i < (1u << std::min(failed_steals, 6u)); ++i) {
                            std::this_thread::yield();
                        }
                        continue;
                    }
                    failed_steals = 0;
                    (void)execute(id, config.work_per_task);
                    ++stats.tasks_executed;
                    xmpi::profile::my_counters().sched_tasks_executed.fetch_add(
                        1, std::memory_order_relaxed);
                    if (ledger.mark_done(id)) {
                        round_completions.push_back(id);
                    } else {
                        ++stats.duplicate_completions;
                    }
                    ++executed_this_round;
                }
                self_epoch.close();
            }

            {
                // Completion notifications to every peer, then a termination
                // vote. Both are collective, which keeps the ranks' rounds in
                // lockstep and is where a membership change surfaces.
                PhaseSpan span("sched_round");
                std::unordered_map<int, std::vector<std::uint64_t>> outbox;
                if (!round_completions.empty()) {
                    for (int peer = 0; peer < p; ++peer) {
                        if (peer != self) {
                            outbox.emplace(peer, round_completions);
                        }
                    }
                }
                c.alltoallv_sparse(outbox, [&](int /*source*/, std::vector<std::uint64_t> ids) {
                    for (auto const id: ids) {
                        if (!ledger.mark_done(id)) {
                            ++stats.duplicate_completions;
                        }
                    }
                });
                round_completions.clear();
                ++stats.rounds;
                auto const agreed_done = c.allreduce_single(
                    kamping::send_buf(ledger.done_count()), kamping::op(kamping::ops::min{}));
                if (agreed_done == config.n_tasks) {
                    break;
                }
            }
        }

        // --- Checksum agreement ------------------------------------------
        stats.done_tasks = ledger.done_count();
        stats.checksum = ledger.checksum();
        auto const lo = c.allreduce_single(
            kamping::send_buf(stats.checksum), kamping::op(kamping::ops::min{}));
        auto const hi = c.allreduce_single(
            kamping::send_buf(stats.checksum), kamping::op(kamping::ops::max{}));
        stats.checksum_converged = (lo == hi) && stats.done_tasks == config.n_tasks;
        win.free();
    });
    return stats;
}

} // namespace apps::kasched
