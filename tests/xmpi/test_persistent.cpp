/// @file test_persistent.cpp
/// @brief Persistent and partitioned communication: the inactive→started→
/// complete lifecycle, restart correctness for point-to-point and
/// collectives, payload-pool reservation reuse, and partitioned
/// Pready/Parrived composition.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "xmpi/profile.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;

TEST(Persistent, SendRecvRestartsCarryFreshData) {
    constexpr int kRounds = 5;
    World::run_ranked(2, [](int rank) {
        if (rank == 0) {
            int payload = 0;
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Send_init(&payload, 1, XMPI_INT, 1, 4, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            for (int round = 0; round < kRounds; ++round) {
                payload = 1000 + round; // mutate the bound buffer, then restart
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                XMPI_Status status;
                ASSERT_EQ(XMPI_Wait(&request, &status), XMPI_SUCCESS);
                // Persistent completion keeps the handle alive.
                ASSERT_NE(request, XMPI_REQUEST_NULL);
            }
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
            EXPECT_EQ(request, XMPI_REQUEST_NULL);
        } else {
            int received = -1;
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Recv_init(&received, 1, XMPI_INT, 0, 4, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            for (int round = 0; round < kRounds; ++round) {
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                XMPI_Status status;
                ASSERT_EQ(XMPI_Wait(&request, &status), XMPI_SUCCESS);
                EXPECT_EQ(received, 1000 + round);
                EXPECT_EQ(status.source, 0);
                EXPECT_EQ(status.tag, 4);
            }
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        }
    });
}

TEST(Persistent, LifecycleRules) {
    World::run(1, [] {
        int dummy = 0;
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Send_init(&dummy, 1, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        // Wait on an INACTIVE persistent request: immediate empty status.
        XMPI_Status status;
        ASSERT_EQ(XMPI_Wait(&request, &status), XMPI_SUCCESS);
        EXPECT_EQ(status.source, XMPI_PROC_NULL);
        EXPECT_EQ(status.error, XMPI_SUCCESS);
        ASSERT_NE(request, XMPI_REQUEST_NULL);
        // Start is rejected while already active.
        ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
        EXPECT_EQ(XMPI_Start(&request), XMPI_ERR_REQUEST);
        ASSERT_EQ(XMPI_Wait(&request, &status), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        // Start on a non-persistent or null handle is an error.
        XMPI_Request null_request = XMPI_REQUEST_NULL;
        EXPECT_EQ(XMPI_Start(&null_request), XMPI_ERR_REQUEST);
    });
}

TEST(Persistent, StartallLaunchesAWholeArray) {
    constexpr int kPeers = 3;
    World::run_ranked(kPeers + 1, [](int rank) {
        if (rank == 0) {
            std::vector<int> values(kPeers, 0);
            std::vector<XMPI_Request> requests(kPeers);
            for (int peer = 0; peer < kPeers; ++peer) {
                ASSERT_EQ(
                    XMPI_Recv_init(
                        &values[peer], 1, XMPI_INT, peer + 1, 0, XMPI_COMM_WORLD,
                        &requests[peer]),
                    XMPI_SUCCESS);
            }
            for (int round = 0; round < 3; ++round) {
                ASSERT_EQ(XMPI_Startall(kPeers, requests.data()), XMPI_SUCCESS);
                ASSERT_EQ(
                    XMPI_Waitall(kPeers, requests.data(), XMPI_STATUSES_IGNORE),
                    XMPI_SUCCESS);
                for (int peer = 0; peer < kPeers; ++peer) {
                    EXPECT_EQ(values[peer], (peer + 1) * 10 + round);
                }
            }
            for (auto& request: requests) {
                XMPI_Request_free(&request);
            }
        } else {
            for (int round = 0; round < 3; ++round) {
                int const value = rank * 10 + round;
                ASSERT_EQ(
                    XMPI_Send(&value, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD), XMPI_SUCCESS);
            }
        }
    });
}

TEST(Persistent, SendReusesThePinnedPayloadReservation) {
    // 1024 ints = 4 KiB: above the coalesce ceiling, below rendezvous, so
    // the packed-eager path runs — exactly where the init-time reservation
    // short-circuits the payload-pool allocation on every restart.
    constexpr int kCount = 1024;
    constexpr int kRounds = 4;
    World::run_ranked(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(kCount);
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Send_init(
                    payload.data(), kCount, XMPI_INT, 1, 0, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            auto const before = xmpi::profile::my_snapshot().reserved_payload_reuses;
            for (int round = 0; round < kRounds; ++round) {
                std::iota(payload.begin(), payload.end(), round);
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
                // Wait for the receiver's ack: the reservation buffer cycles
                // back into the slot only once the payload is drained, so
                // without the handshake later rounds would race the return
                // and fall back to a fresh pool allocation.
                int ack = 0;
                ASSERT_EQ(
                    XMPI_Recv(&ack, 1, XMPI_INT, 1, 99, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                    XMPI_SUCCESS);
            }
            auto const after = xmpi::profile::my_snapshot().reserved_payload_reuses;
            EXPECT_GE(after - before, static_cast<std::uint64_t>(kRounds));
            XMPI_Request_free(&request);
        } else {
            std::vector<int> received(kCount);
            for (int round = 0; round < kRounds; ++round) {
                ASSERT_EQ(
                    XMPI_Recv(
                        received.data(), kCount, XMPI_INT, 0, 0, XMPI_COMM_WORLD,
                        XMPI_STATUS_IGNORE),
                    XMPI_SUCCESS);
                EXPECT_EQ(received.front(), round);
                EXPECT_EQ(received.back(), round + kCount - 1);
                int const ack = round;
                ASSERT_EQ(XMPI_Send(&ack, 1, XMPI_INT, 0, 99, XMPI_COMM_WORLD), XMPI_SUCCESS);
            }
        }
    });
}

TEST(Persistent, BcastRestartsFollowTheRoot) {
    constexpr int kRounds = 4;
    World::run_ranked(3, [](int rank) {
        int value = -1;
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Bcast_init(&value, 1, XMPI_INT, 0, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        for (int round = 0; round < kRounds; ++round) {
            if (rank == 0) {
                value = 7000 + round;
            }
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(value, 7000 + round);
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

TEST(Persistent, AllreduceRestartsRecomputeTheSum) {
    constexpr int kRanks = 4;
    World::run_ranked(kRanks, [](int rank) {
        int contribution = 0;
        int sum = 0;
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Allreduce_init(
                &contribution, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        for (int round = 1; round <= 3; ++round) {
            contribution = rank * round;
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            int expected = 0;
            for (int r = 0; r < kRanks; ++r) {
                expected += r * round;
            }
            EXPECT_EQ(sum, expected);
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

TEST(Persistent, AlltoallRestartsExchangeFreshVectors) {
    constexpr int kRanks = 3;
    World::run_ranked(kRanks, [](int rank) {
        std::vector<int> send(kRanks, 0);
        std::vector<int> recv(kRanks, -1);
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Alltoall_init(
                send.data(), 1, XMPI_INT, recv.data(), 1, XMPI_INT, XMPI_COMM_WORLD,
                &request),
            XMPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int peer = 0; peer < kRanks; ++peer) {
                send[peer] = rank * 100 + peer * 10 + round;
            }
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            for (int peer = 0; peer < kRanks; ++peer) {
                EXPECT_EQ(recv[peer], peer * 100 + rank * 10 + round);
            }
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

TEST(Persistent, BarrierRestartsSynchronize) {
    static std::atomic<int> arrivals{0};
    arrivals.store(0);
    World::run_ranked(3, [](int rank) {
        (void)rank;
        XMPI_Request request;
        ASSERT_EQ(XMPI_Barrier_init(XMPI_COMM_WORLD, &request), XMPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            arrivals.fetch_add(1);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            // Everyone passed the barrier, so every rank's increment for
            // this round (and possibly later rounds) is visible.
            EXPECT_GE(arrivals.load(), 3 * (round + 1));
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

TEST(Partitioned, PsendDeliversWhenAllPartitionsAreReady) {
    constexpr int kPartitions = 4;
    constexpr int kPerPartition = 8;
    World::run_ranked(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(kPartitions * kPerPartition, 0);
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Psend_init(
                    payload.data(), kPartitions, kPerPartition, XMPI_INT, 1, 2,
                    XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                for (int p = 0; p < kPartitions; ++p) {
                    std::iota(
                        payload.begin() + p * kPerPartition,
                        payload.begin() + (p + 1) * kPerPartition,
                        round * 1000 + p * kPerPartition);
                    ASSERT_EQ(XMPI_Pready(p, request), XMPI_SUCCESS);
                }
                ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            }
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        } else {
            std::vector<int> received(kPartitions * kPerPartition, -1);
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Precv_init(
                    received.data(), kPartitions, kPerPartition, XMPI_INT, 0, 2,
                    XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                // Poll arrival without consuming the completion.
                int flag = 0;
                while (flag == 0) {
                    ASSERT_EQ(XMPI_Parrived(request, kPartitions - 1, &flag), XMPI_SUCCESS);
                }
                ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
                for (int i = 0; i < kPartitions * kPerPartition; ++i) {
                    EXPECT_EQ(received[i], round * 1000 + i);
                }
            }
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        }
    });
}

TEST(Partitioned, PreadyComposesFromManyProducerThreads) {
    constexpr int kPartitions = 8;
    constexpr int kPerPartition = 16;
    World::run_ranked(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(kPartitions * kPerPartition);
            std::iota(payload.begin(), payload.end(), 0);
            XMPI_Request request;
            ASSERT_EQ(
                XMPI_Psend_init(
                    payload.data(), kPartitions, kPerPartition, XMPI_INT, 1, 0,
                    XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            // Each producer thread readies its own slice — the whole point
            // of the partitioned API. The final pready (from whichever
            // thread) triggers the single transport send.
            std::vector<std::thread> producers;
            producers.reserve(kPartitions);
            for (int p = 0; p < kPartitions; ++p) {
                producers.emplace_back(
                    [p, request] { ASSERT_EQ(XMPI_Pready(p, request), XMPI_SUCCESS); });
            }
            for (auto& producer: producers) {
                producer.join();
            }
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        } else {
            std::vector<int> received(kPartitions * kPerPartition, -1);
            ASSERT_EQ(
                XMPI_Recv(
                    received.data(), kPartitions * kPerPartition, XMPI_INT, 0, 0,
                    XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_SUCCESS);
            for (int i = 0; i < kPartitions * kPerPartition; ++i) {
                EXPECT_EQ(received[i], i);
            }
        }
    });
}

// The last Pready hands the message to the owning rank's progress: any
// blocking call it makes next (here a barrier the receiver enters only after
// its data arrived) must send it, before the sender ever waits on the
// partitioned request.
TEST(Partitioned, BlockingCallAfterLastPreadySendsTheMessage) {
    constexpr int kPartitions = 3;
    World::run_ranked(2, [](int rank) {
        std::vector<int> data(kPartitions, -1);
        XMPI_Request request;
        if (rank == 0) {
            ASSERT_EQ(
                XMPI_Psend_init(
                    data.data(), kPartitions, 1, XMPI_INT, 1, 3, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            for (int p = 0; p < kPartitions; ++p) {
                data[static_cast<std::size_t>(p)] = 7 * p;
                ASSERT_EQ(XMPI_Pready(p, request), XMPI_SUCCESS);
            }
            ASSERT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        } else {
            ASSERT_EQ(
                XMPI_Precv_init(
                    data.data(), kPartitions, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
            for (int p = 0; p < kPartitions; ++p) {
                EXPECT_EQ(data[static_cast<std::size_t>(p)], 7 * p);
            }
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

// Freeing a started partitioned send whose partitions are not all ready
// returns without sending (the round's fiber must not wait forever).
TEST(Partitioned, FreeingAStartedPsendWithOutstandingPartitionsReturns) {
    World::run(1, [] {
        std::vector<int> payload(4, 0);
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Psend_init(
                payload.data(), 2, 2, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Pready(1, request), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        EXPECT_EQ(request, XMPI_REQUEST_NULL);
    });
}

TEST(Partitioned, PreadyRejectsMisuse) {
    World::run(1, [] {
        std::vector<int> payload(4, 0);
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Psend_init(
                payload.data(), 2, 2, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD,
                &request),
            XMPI_SUCCESS);
        // Not started yet.
        EXPECT_EQ(XMPI_Pready(0, request), XMPI_ERR_REQUEST);
        ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
        // Out of range, then double-ready.
        EXPECT_EQ(XMPI_Pready(2, request), XMPI_ERR_ARG);
        EXPECT_EQ(XMPI_Pready(-1, request), XMPI_ERR_ARG);
        ASSERT_EQ(XMPI_Pready(0, request), XMPI_SUCCESS);
        EXPECT_EQ(XMPI_Pready(0, request), XMPI_ERR_ARG);
        ASSERT_EQ(XMPI_Pready(1, request), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        // Pready/Parrived on a non-partitioned request is an error.
        int dummy = 0;
        XMPI_Request plain;
        ASSERT_EQ(
            XMPI_Send_init(&dummy, 1, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &plain),
            XMPI_SUCCESS);
        EXPECT_EQ(XMPI_Pready(0, plain), XMPI_ERR_REQUEST);
        int flag = 0;
        EXPECT_EQ(XMPI_Parrived(plain, 0, &flag), XMPI_ERR_REQUEST);
        ASSERT_EQ(XMPI_Request_free(&plain), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

TEST(Persistent, FreeingAnInactivePersistentRequestIsSafe) {
    World::run(1, [] {
        int dummy = 0;
        XMPI_Request request;
        ASSERT_EQ(
            XMPI_Recv_init(&dummy, 1, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        // Never started: free must not block or leak.
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        EXPECT_EQ(request, XMPI_REQUEST_NULL);
    });
}

} // namespace
