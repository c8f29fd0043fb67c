/// @file test_progress.cpp
/// @brief The shared non-blocking progress engine: bounded worker pool,
/// caller-driven progress under saturation, inline backpressure fallback,
/// failure sweeps (revocation / rank death), and the incomplete-destruction
/// diagnosis that replaced the old thread-per-request silent join.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

namespace chaos = xmpi::chaos;
namespace progress = xmpi::progress;
using xmpi::World;

/// @brief Restores the default engine configuration when a test that
/// narrowed the pool (1 worker, tiny queue) finishes, so suites sharing this
/// binary never inherit a deliberately hostile setup.
class ProgressTest : public ::testing::Test {
protected:
    void TearDown() override { progress::configure({}); }
};

/// @brief Live thread count of this process (Linux); 0 when unavailable.
long current_thread_count() {
#ifdef __linux__
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) {
        return 0;
    }
    long threads = 0;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::sscanf(line, "Threads: %ld", &threads) == 1) {
            break;
        }
    }
    std::fclose(status);
    return threads;
#else
    return 0;
#endif
}

/// @brief Revokes @c comm unless already revoked (ULFM survivor protocol;
/// see test_ulfm.cpp).
void revoke_once(XMPI_Comm comm) {
    int revoked = 0;
    XMPI_Comm_is_revoked(comm, &revoked);
    if (revoked == 0) {
        XMPI_Comm_revoke(comm);
    }
}

TEST_F(ProgressTest, ConfigurationRoundTrips) {
    EXPECT_GE(progress::default_thread_count(), 1u);

    progress::configure({.threads = 2, .queue_capacity = 8});
    auto const narrowed = progress::current_config();
    EXPECT_EQ(narrowed.threads, 2u);
    EXPECT_EQ(narrowed.queue_capacity, 8u);

    progress::configure({});
    auto const defaults = progress::current_config();
    EXPECT_EQ(defaults.threads, 0u);
    EXPECT_EQ(defaults.queue_capacity, 1024u);
}

// The headline property of the engine: hundreds of in-flight non-blocking
// collectives across many communicators cost O(pool) threads, not one thread
// per initiation, and still all complete correctly (caller-driven progress
// breaks any dependency cycle between them even on a 1-worker pool).
TEST_F(ProgressTest, ConcurrentInitiationStressAcrossCommunicators) {
    constexpr int kRanks = 4;
    constexpr int kComms = 8;
    constexpr int kRounds = 8;
    constexpr int kInFlight = kComms * kRounds; // per rank

    World::run_ranked(kRanks, [&](int rank) {
        std::array<XMPI_Comm, kComms> comms{};
        for (int c = 0; c < kComms; ++c) {
            ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &comms[c]), XMPI_SUCCESS);
        }

        // Per-operation buffers must stay untouched until completion.
        std::array<std::array<int, kRounds>, kComms> sendbuf{};
        std::array<std::array<int, kRounds>, kComms> recvbuf{};
        std::vector<XMPI_Request> requests;
        requests.reserve(kInFlight);

        // Same initiation order on every rank (MPI non-blocking rule);
        // multiple operations in flight per communicator.
        for (int round = 0; round < kRounds; ++round) {
            for (int c = 0; c < kComms; ++c) {
                XMPI_Request request = XMPI_REQUEST_NULL;
                if (round % 2 == 0) {
                    sendbuf[c][round] = rank * 1000 + c * 10 + round;
                    ASSERT_EQ(
                        XMPI_Iallreduce(
                            &sendbuf[c][round], &recvbuf[c][round], 1, XMPI_INT, XMPI_SUM,
                            comms[c], &request),
                        XMPI_SUCCESS);
                } else {
                    int const root = (c + round) % kRanks;
                    recvbuf[c][round] = rank == root ? root * 1000 + c * 10 + round : -1;
                    ASSERT_EQ(
                        XMPI_Ibcast(&recvbuf[c][round], 1, XMPI_INT, root, comms[c], &request),
                        XMPI_SUCCESS);
                }
                requests.push_back(request);
            }
        }

        // All ranks have their full window in flight; with the retired
        // thread-per-request design this point held kRanks * kInFlight = 256
        // helper threads. The engine bound is ranks + pool + harness slack.
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
            long const threads = current_thread_count();
            if (threads > 0) {
                EXPECT_LE(threads, 32) << "thread-per-request regression: " << threads
                                       << " live threads with " << kRanks * kInFlight
                                       << " operations in flight";
            }
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        ASSERT_EQ(
            XMPI_Waitall(static_cast<int>(requests.size()), requests.data(), XMPI_STATUSES_IGNORE),
            XMPI_SUCCESS);

        for (int round = 0; round < kRounds; ++round) {
            for (int c = 0; c < kComms; ++c) {
                if (round % 2 == 0) {
                    int expected = 0;
                    for (int r = 0; r < kRanks; ++r) {
                        expected += r * 1000 + c * 10 + round;
                    }
                    EXPECT_EQ(recvbuf[c][round], expected);
                } else {
                    int const root = (c + round) % kRanks;
                    EXPECT_EQ(recvbuf[c][round], root * 1000 + c * 10 + round);
                }
            }
        }

        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.engine_tasks, static_cast<std::uint64_t>(kInFlight));
        EXPECT_EQ(snapshot.engine_inline_fallbacks, 0u);
        EXPECT_GE(snapshot.engine_queue_depth_max, 1u);

        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
}

// queue_capacity = 0 forces every submission onto the backpressure path: the
// initiating rank runs the collective inline (eager fallback, equivalent to
// the blocking form), nothing is ever enqueued, and the request completes
// immediately.
TEST_F(ProgressTest, FullQueueFallsBackToInlineExecution) {
    progress::configure({.threads = 1, .queue_capacity = 0});

    constexpr int kOps = 4;
    World::run_ranked(2, [&](int rank) {
        for (int i = 0; i < kOps; ++i) {
            int const value = rank + 1 + i;
            int sum = 0;
            XMPI_Request request = XMPI_REQUEST_NULL;
            ASSERT_EQ(
                XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            // The operation already ran inline at initiation: a single test()
            // observes completion without any waiting.
            int flag = 0;
            ASSERT_EQ(XMPI_Test(&request, &flag, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(flag, 1);
            EXPECT_EQ(sum, 2 * i + 3);
        }
        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.engine_inline_fallbacks, static_cast<std::uint64_t>(kOps));
        EXPECT_EQ(snapshot.engine_tasks, 0u);
    });
}

// More in-flight operations than the default queue holds (4 ranks x 512 >
// 1024): once the queue is full an initiator must run its own queued tasks,
// oldest first, before a slot frees. Running the NEW task inline instead
// blocks it on peers whose matching older tasks still wait in the queue —
// the engine used to hang here from about 300 operations per rank.
TEST_F(ProgressTest, FullQueueDrainsOwnQueuedTasksBeforeRunningInline) {
    constexpr int kRanks = 4;
    constexpr int kComms = 4;
    constexpr int kInFlight = 512; // per rank

    World::run_ranked(kRanks, [&](int rank) {
        std::array<XMPI_Comm, kComms> comms{};
        for (auto& comm: comms) {
            ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &comm), XMPI_SUCCESS);
        }
        std::vector<int> sendbuf(kInFlight);
        std::vector<int> recvbuf(kInFlight, -1);
        std::vector<XMPI_Request> requests(kInFlight, XMPI_REQUEST_NULL);
        for (int i = 0; i < kInFlight; ++i) {
            sendbuf[i] = rank * kInFlight + i;
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &sendbuf[i], &recvbuf[i], 1, XMPI_INT, XMPI_SUM, comms[i % kComms],
                    &requests[i]),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Waitall(kInFlight, requests.data(), XMPI_STATUSES_IGNORE), XMPI_SUCCESS);
        for (int i = 0; i < kInFlight; ++i) {
            EXPECT_EQ(recvbuf[i], kInFlight * kRanks * (kRanks - 1) / 2 + kRanks * i);
        }
        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
}

// Revoking a communicator must fail its queued-but-unstarted tasks in place:
// a later test() reports XMPI_ERR_REVOKED via the sweep (ulfm_revoke ->
// fail_queued_for_comm), not by running the collective on a dead
// communicator.
//
// Pinning the 1-worker pool deterministically: rank 0 initiates an
// iallreduce whose matching initiation on rank 1 only happens at release
// time. Recursive doubling cannot complete without the peer's contribution,
// and the queue is FIFO, so whether the worker has claimed the blocker or
// not, every task submitted afterwards is guaranteed to still be queued
// until the blocker is released.
TEST_F(ProgressTest, RevocationFailsQueuedTasks) {
    progress::configure({.threads = 1, .queue_capacity = 1024});

    World::run_ranked(2, [&](int rank) {
        XMPI_Comm blocker_comm = XMPI_COMM_NULL;
        XMPI_Comm revoked_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &blocker_comm), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &revoked_comm), XMPI_SUCCESS);

        int const blocker_value = rank + 1;
        int blocker_sum = 0;
        XMPI_Request blocker = XMPI_REQUEST_NULL;
        if (rank == 0) {
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm, &blocker),
                XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        // Both victims enqueue behind the blocker and can never start.
        int const value = rank;
        int sum = 0;
        XMPI_Request victim = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, revoked_comm, &victim),
            XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD);

        if (rank == 0) {
            ASSERT_EQ(XMPI_Comm_revoke(revoked_comm), XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        // The sweep already completed the task: one test() observes it.
        int flag = 0;
        XMPI_Status status;
        int const err = XMPI_Test(&victim, &flag, &status);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(err, XMPI_ERR_REVOKED);
        EXPECT_EQ(status.error, XMPI_ERR_REVOKED);
        XMPI_Barrier(XMPI_COMM_WORLD);

        // Release: rank 1 supplies the matching initiation; both waits
        // complete the blocker normally (caller-driven progress runs
        // whichever side is still queued).
        if (rank == 1) {
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm, &blocker),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Wait(&blocker, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(blocker_sum, 3);

        XMPI_Comm_free(&blocker_comm);
        XMPI_Comm_free(&revoked_comm);
    });
}

// A chaos plan kills rank 2 at its second iallreduce *initiation*, leaving
// its first task queued on the engine. The rank-death sweep
// (World::mark_failed -> fail_queued_for_rank) must complete that task
// without ever running it — the dead rank's stack is gone — and survivors'
// waits must error out instead of hanging.
TEST_F(ProgressTest, ChaosKillLeavesQueuedTasksFailedNotRun) {
    progress::configure({.threads = 1, .queue_capacity = 1024});

    constexpr int kRanks = 3;
    constexpr std::uint64_t kSeed = 0xC0FFEE;
    chaos::arm_next_world(chaos::FaultPlan(kSeed).kill_at_call(2, chaos::Call::iallreduce, 2));

    // Buffers live outside the rank lambdas: a task claimed by the worker
    // before its initiator dies may legitimately still touch them while the
    // victim's own stack unwinds.
    static std::array<int, kRanks> first_send{};
    static std::array<int, kRanks> first_recv{};
    static std::array<int, kRanks> second_send{};
    static std::array<int, kRanks> second_recv{};

    // Every rank finishes set-up before any rank initiates: otherwise rank 2
    // can race through both dups and die while a peer still waits inside the
    // second one, whose receive then (rightly) reports the failure — the
    // peer leaves the test early and the third rank waits on it forever.
    std::atomic<int> set_up{0};

    World::run_ranked(kRanks, [&](int rank) {
        XMPI_Comm first_comm = XMPI_COMM_NULL;
        XMPI_Comm second_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &first_comm), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &second_comm), XMPI_SUCCESS);
        set_up.fetch_add(1);
        while (set_up.load() < kRanks) {
            std::this_thread::yield();
        }

        first_send[rank] = rank + 1;
        second_send[rank] = (rank + 1) * 10;

        XMPI_Request first = XMPI_REQUEST_NULL;
        XMPI_Request second = XMPI_REQUEST_NULL;
        // Call 1: fine on every rank. The 1-worker pool claims one task and
        // blocks in it; the others stay queued.
        ASSERT_EQ(
            XMPI_Iallreduce(
                &first_send[rank], &first_recv[rank], 1, XMPI_INT, XMPI_SUM, first_comm, &first),
            XMPI_SUCCESS);
        // Call 2: rank 2 dies at the profiled entry point, before submitting
        // — its queued first task must be swept, never run.
        ASSERT_EQ(
            XMPI_Iallreduce(
                &second_send[rank], &second_recv[rank], 1, XMPI_INT, XMPI_SUM, second_comm,
                &second),
            XMPI_SUCCESS);

        // Only survivors get here. Neither collective can complete without
        // rank 2's contribution; waits must report the failure (directly, or
        // as REVOKED once a peer that observed it first revokes — the ULFM
        // survivor protocol, see test_ulfm.cpp).
        int const err_second = XMPI_Wait(&second, XMPI_STATUS_IGNORE);
        EXPECT_NE(err_second, XMPI_SUCCESS);
        if (err_second != XMPI_SUCCESS) {
            revoke_once(second_comm);
        }
        int const err_first = XMPI_Wait(&first, XMPI_STATUS_IGNORE);
        EXPECT_NE(err_first, XMPI_SUCCESS);
        if (err_first != XMPI_SUCCESS) {
            revoke_once(first_comm);
        }
        for (int const err: {err_second, err_first}) {
            EXPECT_TRUE(err == XMPI_ERR_PROC_FAILED || err == XMPI_ERR_REVOKED)
                << "unexpected error code " << err;
        }

        XMPI_Comm_free(&first_comm);
        XMPI_Comm_free(&second_comm);
    });
}

// The old thread-per-request destructor silently join()ed an incomplete request —
// a hidden blocking point. The engine diagnoses the misuse (counter +
// stderr), then still does the safe thing: cancel a still-queued task
// outright, so freeing an unstarted request never blocks or leaves a worker
// touching freed buffers.
TEST_F(ProgressTest, FreeingIncompleteRequestIsDiagnosedAndSafe) {
    progress::configure({.threads = 1, .queue_capacity = 1024});

    World::run_ranked(2, [&](int rank) {
        XMPI_Comm blocker_comm = XMPI_COMM_NULL;
        XMPI_Comm leaked_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &blocker_comm), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &leaked_comm), XMPI_SUCCESS);

        // Pin the single worker (same deterministic construction as in
        // RevocationFailsQueuedTasks): rank 0's half-initiated iallreduce
        // heads the FIFO queue and cannot complete until released, so the
        // soon-to-be-leaked tasks are guaranteed to still be queued.
        int const blocker_value = rank + 1;
        int blocker_sum = 0;
        XMPI_Request blocker = XMPI_REQUEST_NULL;
        if (rank == 0) {
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm, &blocker),
                XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        int const value = rank;
        int sum = 0;
        XMPI_Request leaked = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, leaked_comm, &leaked),
            XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD);

        // Freeing without wait/test: diagnosed, queued task cancelled, and
        // crucially this returns instead of blocking forever on a task the
        // pinned worker would never reach.
        ASSERT_EQ(XMPI_Request_free(&leaked), XMPI_SUCCESS);

        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.engine_incomplete_destructions, 1u);

        // An abandoned-by-the-book request (Cancel, then free) is not an
        // error and must not be counted as one.
        int other = rank;
        int other_sum = 0;
        XMPI_Request cancelled = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&other, &other_sum, 1, XMPI_INT, XMPI_SUM, leaked_comm, &cancelled),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Cancel(&cancelled), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Request_free(&cancelled), XMPI_SUCCESS);
        EXPECT_EQ(xmpi::profile::my_snapshot().engine_incomplete_destructions, 1u);
        XMPI_Barrier(XMPI_COMM_WORLD);

        // Release the blocker: rank 1 supplies the matching initiation.
        if (rank == 1) {
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm, &blocker),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Wait(&blocker, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(blocker_sum, 3);

        XMPI_Comm_free(&blocker_comm);
        XMPI_Comm_free(&leaked_comm);
    });
}

// Tracing spans produced by the engine are tagged with the time the task
// spent queued before a worker (or helping caller) picked it up.
TEST_F(ProgressTest, SpansCarryQueueWaitTime) {
    xmpi::profile::clear_spans();
    xmpi::profile::set_tracing_enabled(true);
    World::run(2, [] {
        int const value = 1;
        int sum = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(sum, 2);
    });
    std::string const json = xmpi::profile::spans_json();
    xmpi::profile::set_tracing_enabled(false);
    EXPECT_NE(json.find("\"op\": \"iallreduce\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_s\":"), std::string::npos) << json;
}

} // namespace
