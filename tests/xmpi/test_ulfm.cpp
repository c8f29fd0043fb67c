/// @file test_ulfm.cpp
/// @brief User-level failure mitigation: failure injection, revocation,
/// shrink, and agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;

TEST(Ulfm, CollectiveReportsFailedPeer) {
    World::run_ranked(3, [](int rank) {
        if (rank == 2) {
            xmpi::inject_failure(); // unwinds this rank
        }
        int value = rank;
        int sum = 0;
        // As in ULFM, not every survivor necessarily observes the failure in
        // the same collective (a rank whose tree role never touches the dead
        // peer can return success and block in the *next* operation). The
        // survivor that does observe it must revoke to unblock the others —
        // the protocol of the paper's Fig. 12.
        int err = XMPI_SUCCESS;
        for (int attempt = 0; attempt < 100 && err == XMPI_SUCCESS; ++attempt) {
            err = XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD);
        }
        EXPECT_TRUE(err == XMPI_ERR_PROC_FAILED || err == XMPI_ERR_REVOKED);
        int revoked = 0;
        XMPI_Comm_is_revoked(XMPI_COMM_WORLD, &revoked);
        if (revoked == 0) {
            XMPI_Comm_revoke(XMPI_COMM_WORLD);
        }
    });
}

TEST(Ulfm, RecvFromFailedRankErrorsInsteadOfHanging) {
    World::run_ranked(2, [](int rank) {
        if (rank == 1) {
            xmpi::inject_failure();
        }
        int value = 0;
        int const err = XMPI_Recv(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
        EXPECT_EQ(err, XMPI_ERR_PROC_FAILED);
    });
}

TEST(Ulfm, RevokePoisonsPendingAndFutureOperations) {
    World::run_ranked(3, [](int rank) {
        if (rank == 0) {
            ASSERT_EQ(XMPI_Comm_revoke(XMPI_COMM_WORLD), XMPI_SUCCESS);
        }
        if (rank != 0) {
            // Blocked receives must be woken with an error once revoked.
            int value = 0;
            int const err =
                XMPI_Recv(&value, 1, XMPI_INT, 0, 99, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(err, XMPI_ERR_REVOKED);
        }
        int flag = 0;
        XMPI_Comm_is_revoked(XMPI_COMM_WORLD, &flag);
        EXPECT_EQ(flag, 1);
        int value = 1;
        int sum = 0;
        EXPECT_EQ(
            XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD),
            XMPI_ERR_REVOKED);
    });
}

TEST(Ulfm, ShrinkBuildsSurvivorCommunicator) {
    World::run_ranked(4, [](int rank) {
        if (rank == 1) {
            xmpi::inject_failure();
        }
        XMPI_Comm survivors = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_shrink(XMPI_COMM_WORLD, &survivors), XMPI_SUCCESS);
        ASSERT_NE(survivors, XMPI_COMM_NULL);
        int size = 0;
        XMPI_Comm_size(survivors, &size);
        EXPECT_EQ(size, 3);
        int new_rank = -1;
        XMPI_Comm_rank(survivors, &new_rank);
        EXPECT_EQ(new_rank, rank == 0 ? 0 : rank - 1) << "survivors keep relative order";

        // The shrunken communicator is fully operational.
        int value = 1;
        int sum = 0;
        ASSERT_EQ(XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, survivors), XMPI_SUCCESS);
        EXPECT_EQ(sum, 3);
        XMPI_Comm_free(&survivors);
    });
}

TEST(Ulfm, ShrinkOnRevokedCommunicatorStillWorks) {
    World::run_ranked(3, [](int rank) {
        if (rank == 2) {
            xmpi::inject_failure();
        }
        if (rank == 0) {
            XMPI_Comm_revoke(XMPI_COMM_WORLD);
        }
        XMPI_Comm survivors = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_shrink(XMPI_COMM_WORLD, &survivors), XMPI_SUCCESS);
        int size = 0;
        XMPI_Comm_size(survivors, &size);
        EXPECT_EQ(size, 2);
        XMPI_Comm_free(&survivors);
    });
}

TEST(Ulfm, AgreeComputesBitwiseAndAcrossSurvivors) {
    World::run_ranked(3, [](int rank) {
        if (rank == 1) {
            xmpi::inject_failure();
        }
        int flag = rank == 0 ? 0b110 : 0b011;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
        EXPECT_EQ(flag, 0b010);
    });
}

TEST(Ulfm, RepeatedAgreeDoesNotLeakAccumulatorState) {
    // Two back-to-back agrees with different flags: the AND accumulator must
    // reset between rounds, so round 2 is unaffected by round 1's bits.
    World::run_ranked(3, [](int rank) {
        int first = rank == 0 ? 0b100 : 0b101;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &first), XMPI_SUCCESS);
        EXPECT_EQ(first, 0b100);
        // Stale state from round 1 (0b100) would zero this round out.
        int second = rank == 0 ? 0b011 : 0b111;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &second), XMPI_SUCCESS);
        EXPECT_EQ(second, 0b011);
        // And a third round for good measure, all bits set.
        int third = ~0;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &third), XMPI_SUCCESS);
        EXPECT_EQ(third, ~0);
    });
}

TEST(Ulfm, ErrorStringsAreExhaustive) {
    // Every defined error class has a dedicated description; only codes
    // outside the defined range fall through to the generic string.
    char const* const unknown = xmpi::error_string(-1);
    EXPECT_STREQ(unknown, "unknown error");
    for (int code = 0; code <= XMPI_ERR_LASTCODE; ++code) {
        EXPECT_STRNE(xmpi::error_string(code), unknown) << "code " << code;
        EXPECT_STRNE(xmpi::error_string(code), nullptr) << "code " << code;
    }
    EXPECT_STREQ(xmpi::error_string(XMPI_ERR_LASTCODE + 1), unknown);
}

TEST(Ulfm, WaitOnPendingReceiveReturnsRevoked) {
    World::run_ranked(2, [](int rank) {
        if (rank == 1) {
            int value = 0;
            XMPI_Request request = XMPI_REQUEST_NULL;
            ASSERT_EQ(
                XMPI_Irecv(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD, &request), XMPI_SUCCESS);
            // No matching send is ever posted; the revoke must propagate
            // into the pending receive instead of leaving it blocked.
            int const err = XMPI_Wait(&request, XMPI_STATUS_IGNORE);
            EXPECT_EQ(err, XMPI_ERR_REVOKED);
            EXPECT_EQ(request, XMPI_REQUEST_NULL);
        } else {
            ASSERT_EQ(XMPI_Comm_revoke(XMPI_COMM_WORLD), XMPI_SUCCESS);
        }
    });
}

TEST(Ulfm, IrecvFromOutOfRangeSourceReportsRankError) {
    World::run_ranked(2, [](int) {
        int value = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        EXPECT_EQ(
            XMPI_Irecv(&value, 1, XMPI_INT, 5, 0, XMPI_COMM_WORLD, &request), XMPI_ERR_RANK);
        EXPECT_EQ(request, XMPI_REQUEST_NULL) << "no request is created on a bad source";
        EXPECT_EQ(
            XMPI_Irecv(&value, 1, XMPI_INT, -7, 0, XMPI_COMM_WORLD, &request), XMPI_ERR_RANK);
    });
}

TEST(Ulfm, ProbeWithProcNullCompletesImmediately) {
    World::run_ranked(2, [](int) {
        xmpi::Status status;
        ASSERT_EQ(XMPI_Probe(XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &status), XMPI_SUCCESS);
        EXPECT_EQ(status.source, XMPI_PROC_NULL);
        int flag = 0;
        ASSERT_EQ(XMPI_Iprobe(XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &flag, &status), XMPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(status.source, XMPI_PROC_NULL);
        // Out-of-range sources are rejected instead of indexing the member
        // table out of bounds.
        EXPECT_EQ(XMPI_Iprobe(9, 0, XMPI_COMM_WORLD, &flag, &status), XMPI_ERR_RANK);
        EXPECT_EQ(XMPI_Probe(-5, 0, XMPI_COMM_WORLD, &status), XMPI_ERR_RANK);
    });
}

TEST(Ulfm, RecoveryLoopReachesCompletion) {
    // The paper's Fig. 12 pattern: try a collective, on failure revoke +
    // shrink, retry on the survivor communicator.
    World::run_ranked(4, [](int rank) {
        if (rank == 3) {
            xmpi::inject_failure();
        }
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        int sum = 0;
        for (int attempt = 0; attempt < 200; ++attempt) {
            int value = 1;
            int const err = XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, comm);
            if (err == XMPI_SUCCESS) {
                break;
            }
            int revoked = 0;
            XMPI_Comm_is_revoked(comm, &revoked);
            if (revoked == 0) {
                XMPI_Comm_revoke(comm);
            }
            XMPI_Comm shrunk = XMPI_COMM_NULL;
            ASSERT_EQ(XMPI_Comm_shrink(comm, &shrunk), XMPI_SUCCESS);
            if (owned) {
                XMPI_Comm_free(&comm);
            }
            comm = shrunk;
            owned = true;
        }
        EXPECT_EQ(sum, 3);
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
}

// Lost-wakeup regression. Every iteration, one rank (the victim) dies
// through the chaos engine — or, on odd iterations, revokes the comm —
// while its peers block in XMPI_Wait on an ibarrier the victim never joins.
// A second rank then dies while the survivors block in XMPI_Comm_agree
// waiting for its contribution. Neither wait has a timeout: a failure or
// revocation that slipped between a waiter's predicate check and its sleep
// would hang the test into its ctest TIMEOUT. The victims poll Iprobe a
// varying number of times first, so the events land at varying points of
// the peers' spin -> yield -> block ladder.
TEST(Ulfm, LostWakeupStress) {
    constexpr int kRanks = 4;
    constexpr int kIterations = 200;
    using xmpi::chaos::FaultPlan;
    using xmpi::profile::Call;
    (void)xmpi::chaos::take_fired_log();
    for (int iteration = 0; iteration < kIterations; ++iteration) {
        bool const revoke = iteration % 2 == 1;
        int const victim = iteration % kRanks;
        int const late = (victim + 1) % kRanks;
        std::uint64_t const polls = 1 + static_cast<std::uint64_t>(iteration % 9) * 24;
        FaultPlan plan(static_cast<std::uint64_t>(iteration));
        if (!revoke) {
            plan.kill_at_call(victim, Call::iprobe, polls);
        }
        plan.kill_at_call(late, Call::iprobe, polls);
        xmpi::chaos::arm_next_world(plan);
        std::atomic<int> agreed{0};
        World::run_ranked(kRanks, [&](int rank) {
            XMPI_Comm const comm = XMPI_COMM_WORLD;
            auto const poll_until_killed = [&] {
                for (;;) {
                    int flag = 0;
                    XMPI_Iprobe(XMPI_ANY_SOURCE, 0, comm, &flag, XMPI_STATUS_IGNORE);
                }
            };
            if (rank == victim) {
                if (!revoke) {
                    poll_until_killed();
                }
                for (std::uint64_t i = 0; i < polls; ++i) {
                    int flag = 0;
                    XMPI_Iprobe(XMPI_ANY_SOURCE, 0, comm, &flag, XMPI_STATUS_IGNORE);
                }
                ASSERT_EQ(XMPI_Comm_revoke(comm), XMPI_SUCCESS);
            } else {
                XMPI_Request request = XMPI_REQUEST_NULL;
                ASSERT_EQ(XMPI_Ibarrier(comm, &request), XMPI_SUCCESS);
                int const err = XMPI_Wait(&request, XMPI_STATUS_IGNORE);
                EXPECT_EQ(err, revoke ? XMPI_ERR_REVOKED : XMPI_ERR_PROC_FAILED)
                    << "iteration " << iteration << " rank " << rank;
            }
            if (rank == late) {
                poll_until_killed();
            }
            int flag = 1;
            ASSERT_EQ(XMPI_Comm_agree(comm, &flag), XMPI_SUCCESS);
            EXPECT_EQ(flag, 1);
            agreed.fetch_add(1);
        });
        EXPECT_EQ(agreed.load(), revoke ? kRanks - 1 : kRanks - 2) << "iteration " << iteration;
        EXPECT_EQ(xmpi::chaos::take_fired_log().size(), revoke ? 1u : 2u)
            << "iteration " << iteration;
    }
}

} // namespace

class UlfmStress : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(
    Seeds, UlfmStress, ::testing::Values(1, 2, 3, 4, 5, 6),
    [](auto const& info) { return "seed" + std::to_string(info.param); });

TEST_P(UlfmStress, RandomlyTimedFailureWithRollbackRecovery) {
    // Failure-injection stress: one rank dies at a random iteration; the
    // survivors revoke, shrink, agree on a rollback iteration, and finish.
    int const seed = GetParam();
    constexpr int kRanks = 5;
    constexpr int kIterations = 8;
    int const doomed_rank = seed % kRanks;
    int const doomed_iteration = (seed * 3) % kIterations;

    World::run_ranked(kRanks, [&](int rank) {
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        int iteration = 0;
        long history[kIterations + 1];
        history[0] = 1;
        while (iteration < kIterations) {
            if (rank == doomed_rank && iteration == doomed_iteration) {
                xmpi::inject_failure();
            }
            long sum = 0;
            int const err = XMPI_Allreduce(
                &history[iteration], &sum, 1, XMPI_LONG, XMPI_SUM, comm);
            if (err == XMPI_SUCCESS) {
                history[iteration + 1] = sum;
                ++iteration;
                continue;
            }
            // Recovery: revoke, shrink, agree on the rollback point.
            int revoked = 0;
            XMPI_Comm_is_revoked(comm, &revoked);
            if (revoked == 0) {
                XMPI_Comm_revoke(comm);
            }
            XMPI_Comm shrunk = XMPI_COMM_NULL;
            ASSERT_EQ(XMPI_Comm_shrink(comm, &shrunk), XMPI_SUCCESS);
            if (owned) {
                XMPI_Comm_free(&comm);
            }
            comm = shrunk;
            owned = true;
            int const negated = -iteration;
            int oldest = 0;
            ASSERT_EQ(
                XMPI_Allreduce(&negated, &oldest, 1, XMPI_INT, XMPI_MAX, comm),
                XMPI_SUCCESS);
            iteration = -oldest;
        }
        // Every survivor computed the same history: the final value is the
        // sum over the surviving communicator size at each step after the
        // failure — just assert agreement.
        long final_value = history[kIterations];
        long agreed = 0;
        ASSERT_EQ(
            XMPI_Allreduce(&final_value, &agreed, 1, XMPI_LONG, XMPI_MAX, comm),
            XMPI_SUCCESS);
        EXPECT_EQ(final_value, agreed) << "survivors diverged";
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
}
