/// @file test_progress.cpp
/// @brief Non-blocking operations as fibers on their initiating rank: no
/// thread per operation (and no pool), progress under crossed initiation
/// orders, failure handling (revocation, rank death while a fiber is
/// parked), and the diagnosis of requests freed before completion.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

namespace chaos = xmpi::chaos;
using xmpi::World;

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

// Hundreds of in-flight non-blocking collectives across many communicators
// cost no thread per initiation, and still all complete correctly (each
// rank resumes its own fibers while it waits).
TEST(ProgressTest, ConcurrentInitiationStressAcrossCommunicators) {
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

// Two ranks initiate non-blocking allreduces on two communicators in
// opposite orders, which MPI allows (only the order per communicator must
// match). A design that runs each operation to completion before the next
// deadlocks here; fibers interleave them on each rank.
TEST(ProgressTest, CrossedInitiationOrderAcrossCommunicatorsCompletes) {
    World::run_ranked(2, [&](int rank) {
        std::array<XMPI_Comm, 2> comms{};
        for (auto& comm: comms) {
            ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &comm), XMPI_SUCCESS);
        }
        std::array<int, 2> value{10 + rank, 20 + rank};
        std::array<int, 2> sum{-1, -1};
        std::array<XMPI_Request, 2> requests{XMPI_REQUEST_NULL, XMPI_REQUEST_NULL};
        for (int i = 0; i < 2; ++i) {
            int const c = rank == 0 ? i : 1 - i;
            ASSERT_EQ(
                XMPI_Iallreduce(&value[c], &sum[c], 1, XMPI_INT, XMPI_SUM, comms[c], &requests[c]),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Waitall(2, requests.data(), XMPI_STATUSES_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(sum[0], 21);
        EXPECT_EQ(sum[1], 41);
        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
}

// XMPI_Parrived is a polling call, so it resumes the rank's parked fibers
// like the Test family does. The receiver spins on Parrived while its
// allreduce is parked waiting for the late rank; the sender finishes that
// allreduce before it readies the partitions, and it can only finish once
// the receiver's fiber has run again (at p = 3, recursive doubling folds
// rank 0 into rank 1, which hands rank 0 the result).
TEST(ProgressTest, ParrivedPollingAdvancesParkedCollectives) {
    constexpr int kSender = 0;
    constexpr int kReceiver = 1;
    constexpr int kPartitions = 2;
    World::run_ranked(3, [](int rank) {
        int const value = rank + 1;
        int sum = 0;
        XMPI_Request allreduce = XMPI_REQUEST_NULL;
        std::array<int, kPartitions> data{-1, -1};
        XMPI_Request partitioned = XMPI_REQUEST_NULL;
        if (rank == kReceiver) {
            ASSERT_EQ(
                XMPI_Precv_init(
                    data.data(), kPartitions, 1, XMPI_INT, kSender, 9, XMPI_COMM_WORLD,
                    &partitioned),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&partitioned), XMPI_SUCCESS);
        } else if (rank == kSender) {
            ASSERT_EQ(
                XMPI_Psend_init(
                    data.data(), kPartitions, 1, XMPI_INT, kReceiver, 9, XMPI_COMM_WORLD,
                    &partitioned),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&partitioned), XMPI_SUCCESS);
        } else {
            // Arrive late, so the receiver is already spinning with its
            // fiber parked.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &allreduce),
            XMPI_SUCCESS);
        if (rank == kReceiver) {
            int flag = 0;
            while (flag == 0) {
                ASSERT_EQ(XMPI_Parrived(partitioned, kPartitions - 1, &flag), XMPI_SUCCESS);
            }
        } else if (rank == kSender) {
            ASSERT_EQ(XMPI_Wait(&allreduce, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            for (int p = 0; p < kPartitions; ++p) {
                data[static_cast<std::size_t>(p)] = 100 + p;
                ASSERT_EQ(XMPI_Pready(p, partitioned), XMPI_SUCCESS);
            }
        }
        ASSERT_EQ(XMPI_Wait(&allreduce, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(sum, 6);
        if (partitioned != XMPI_REQUEST_NULL) {
            ASSERT_EQ(XMPI_Wait(&partitioned, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(data[0], 100);
            EXPECT_EQ(data[1], 101);
            ASSERT_EQ(XMPI_Request_free(&partitioned), XMPI_SUCCESS);
        }
    });
}

// 4 ranks x 512 operations in flight complete, and no operation creates a
// thread: once the world is set up (main + 4 rank threads, plus whatever a
// sanitizer runtime runs), the live thread count never grows.
TEST(ProgressTest, FiveHundredTwelveInFlightPerRankCreateNoThread) {
    constexpr int kRanks = 4;
    constexpr int kComms = 4;
    constexpr int kInFlight = 512; // per rank
    std::atomic<long> set_up{0};
    std::atomic<long> most{0};
    auto const sample = [&] {
        long const now = current_thread_count();
        long seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
    };

    World::run_ranked(kRanks, [&](int rank) {
        std::array<XMPI_Comm, kComms> comms{};
        for (auto& comm: comms) {
            ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &comm), XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
            set_up.store(current_thread_count());
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
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
            if (i % 64 == 0) {
                sample();
            }
        }
        sample();
        for (int i = 0; i < kInFlight; i += 64) {
            ASSERT_EQ(XMPI_Waitall(64, &requests[i], XMPI_STATUSES_IGNORE), XMPI_SUCCESS);
            sample();
        }
        for (int i = 0; i < kInFlight; ++i) {
            EXPECT_EQ(recvbuf[i], kInFlight * kRanks * (kRanks - 1) / 2 + kRanks * i);
        }
        EXPECT_EQ(xmpi::profile::my_snapshot().engine_tasks, static_cast<std::uint64_t>(kInFlight));
        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
    if (set_up.load() > 0) {
        EXPECT_GE(set_up.load(), 1 + kRanks);
        EXPECT_LE(most.load(), set_up.load());
    }
}

// A chaos kill lands on rank 2 while fibers are parked on every rank: the
// survivors' allreduce waits for rank 2's contribution, and rank 2's own
// allreduce on a second communicator waits for peers that never join it.
// Survivors get PROC_FAILED or REVOKED. The victim's parked fiber unwinds
// when its thread exits, so nothing it referenced is touched afterwards and
// nothing leaks.
TEST(ProgressTest, ChaosKillWhileFibersAreParked) {
    constexpr int kRanks = 3;
    constexpr int kVictim = 2;
    chaos::arm_next_world(
        chaos::FaultPlan(0xF1BE5).kill_at_call(kVictim, chaos::Call::iallreduce, 2));

    // The victim's buffers and its pending request outlive its stack; the
    // request is freed after the world ends.
    static int lone_send = 0;
    static int lone_recv = 0;
    static XMPI_Request lone = XMPI_REQUEST_NULL;
    std::atomic<int> initiated{0};

    World::run_ranked(kRanks, [&](int rank) {
        XMPI_Comm shared_comm = XMPI_COMM_NULL;
        XMPI_Comm lone_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &shared_comm), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &lone_comm), XMPI_SUCCESS);
        // Frees the handles on every exit, the victim's unwind included.
        struct Release {
            XMPI_Comm& comm;
            ~Release() {
                if (comm != XMPI_COMM_NULL) {
                    XMPI_Comm_free(&comm);
                }
            }
        } release_shared{shared_comm}, release_lone{lone_comm};

        if (rank == kVictim) {
            ASSERT_EQ(
                XMPI_Iallreduce(&lone_send, &lone_recv, 1, XMPI_INT, XMPI_SUM, lone_comm, &lone),
                XMPI_SUCCESS);
            while (initiated.load() < kRanks - 1) {
                std::this_thread::yield();
            }
            int value = rank;
            int sum = 0;
            XMPI_Request killed = XMPI_REQUEST_NULL;
            // The second iallreduce call is the chaos kill: RankKilled unwinds.
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, shared_comm, &killed);
            ADD_FAILURE() << "the victim survived its kill";
            return;
        }

        int value = rank;
        int sum = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, shared_comm, &request),
            XMPI_SUCCESS);
        initiated.fetch_add(1);
        int const err = XMPI_Wait(&request, XMPI_STATUS_IGNORE);
        EXPECT_TRUE(err == XMPI_ERR_PROC_FAILED || err == XMPI_ERR_REVOKED)
            << "unexpected error code " << err;
        if (err != XMPI_SUCCESS) {
            revoke_once(shared_comm);
        }
    });

    ASSERT_NE(lone, XMPI_REQUEST_NULL);
    int flag = 0;
    XMPI_Status status;
    EXPECT_EQ(XMPI_Test(&lone, &flag, &status), XMPI_ERR_PROC_FAILED);
    EXPECT_EQ(flag, 1);
}

// Revoking a communicator fails the non-blocking operations on it that can
// no longer complete: rank 0's allreduce waits for a rank that never joins
// it, rank 1 revokes, and one test() on rank 0 reports XMPI_ERR_REVOKED —
// the revocation's wake resumes the parked fiber, which sees it.
TEST(ProgressTest, RevocationFailsQueuedTasks) {
    World::run_ranked(2, [&](int rank) {
        XMPI_Comm revoked_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &revoked_comm), XMPI_SUCCESS);

        int const value = rank;
        int sum = 0;
        XMPI_Request victim = XMPI_REQUEST_NULL;
        if (rank == 0) {
            ASSERT_EQ(
                XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, revoked_comm, &victim),
                XMPI_SUCCESS);
            int flag = 1;
            ASSERT_EQ(XMPI_Test(&victim, &flag, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(flag, 0); // parked: rank 1 never contributes
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 1) {
            ASSERT_EQ(XMPI_Comm_revoke(revoked_comm), XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        if (rank == 0) {
            int flag = 0;
            XMPI_Status status;
            int const err = XMPI_Test(&victim, &flag, &status);
            EXPECT_EQ(flag, 1);
            EXPECT_EQ(err, XMPI_ERR_REVOKED);
            EXPECT_EQ(status.error, XMPI_ERR_REVOKED);
        }
        XMPI_Comm_free(&revoked_comm);
    });
}

// Freeing a request before its operation completed is diagnosed (counter +
// stderr) and safe: the free returns only once the fiber finished, so
// nothing touches the caller's buffers afterwards. Cancelling a
// non-blocking collective is refused and the operation still completes.
TEST(ProgressTest, FreeingIncompleteRequestIsDiagnosedAndSafe) {
    std::atomic<bool> freeing{false};
    World::run_ranked(2, [&](int rank) {
        XMPI_Comm leaked_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &leaked_comm), XMPI_SUCCESS);

        int const value = rank + 1;
        int sum = 0;
        XMPI_Request leaked = XMPI_REQUEST_NULL;
        if (rank == 0) {
            ASSERT_EQ(
                XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, leaked_comm, &leaked),
                XMPI_SUCCESS);
            freeing.store(true);
            // Rank 1 contributes only now, so the operation is incomplete
            // here: diagnosed, and the free waits for it.
            ASSERT_EQ(XMPI_Request_free(&leaked), XMPI_SUCCESS);
            EXPECT_EQ(sum, 3);
            EXPECT_EQ(xmpi::profile::my_snapshot().engine_incomplete_destructions, 1u);
        } else {
            while (!freeing.load()) {
                std::this_thread::yield();
            }
            ASSERT_EQ(
                XMPI_Iallreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, leaked_comm, &leaked),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&leaked, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(sum, 3);
            EXPECT_EQ(xmpi::profile::my_snapshot().engine_incomplete_destructions, 0u);
        }

        int other_sum = 0;
        XMPI_Request cancelled = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Iallreduce(&value, &other_sum, 1, XMPI_INT, XMPI_SUM, leaked_comm, &cancelled),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Cancel(&cancelled), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Wait(&cancelled, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(other_sum, 3);

        XMPI_Comm_free(&leaked_comm);
    });
}

// Tracing spans of non-blocking operations carry the queue_s field (0: a
// fiber starts at initiation).
TEST(ProgressTest, SpansCarryQueueWaitTime) {
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
