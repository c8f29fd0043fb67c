/// @file test_profile.cpp
/// @brief PMPI-style profiling counters: call counts and traffic volumes.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;
using xmpi::profile::Call;

TEST(Profile, CountsPointToPointCalls) {
    World::run_ranked(2, [](int rank) {
        xmpi::profile::reset_mine();
        if (rank == 0) {
            int const value = 1;
            XMPI_Send(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD);
            XMPI_Send(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD);
            auto const snapshot = xmpi::profile::my_snapshot();
            EXPECT_EQ(snapshot[Call::send], 2u);
            EXPECT_EQ(snapshot[Call::recv], 0u);
            EXPECT_EQ(snapshot.messages_sent, 2u);
            EXPECT_EQ(snapshot.bytes_sent, 2 * sizeof(int));
        } else {
            int sink = 0;
            XMPI_Recv(&sink, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            XMPI_Recv(&sink, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            auto const snapshot = xmpi::profile::my_snapshot();
            EXPECT_EQ(snapshot[Call::recv], 2u);
        }
    });
}

TEST(Profile, SnapshotOfRejectsOutOfRangeRanks) {
    World::run_ranked(2, [](int rank) {
        XMPI_Barrier(XMPI_COMM_WORLD);
        // Peer snapshots work for every valid rank...
        auto const peer = xmpi::profile::snapshot_of(1 - rank);
        EXPECT_GE(peer[Call::barrier], 1u);
        // ...and out-of-range ranks are a usage error, not an out-of-bounds
        // read of the counter table.
        EXPECT_THROW((void)xmpi::profile::snapshot_of(-1), xmpi::UsageError);
        EXPECT_THROW((void)xmpi::profile::snapshot_of(2), xmpi::UsageError);
        EXPECT_THROW((void)xmpi::profile::snapshot_of(1000), xmpi::UsageError);
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(Profile, CollectiveCallsAreCountedOncePerEntry) {
    World::run(4, [] {
        XMPI_Barrier(XMPI_COMM_WORLD);
        xmpi::profile::reset_mine();
        int const value = 1;
        int sum = 0;
        XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD);
        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot[Call::allreduce], 1u);
        // The internal tree messages count as traffic but not as user calls.
        EXPECT_EQ(snapshot[Call::send], 0u);
        EXPECT_EQ(snapshot[Call::recv], 0u);
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(Profile, MessageCountReflectsAlgorithmShape) {
    // An alltoallv on p ranks sends p-1 messages per rank (pairwise
    // exchange) — the profiling counters make such claims testable without
    // timing (used by the Fig. 10 benchmark analysis).
    constexpr int kWorldSize = 8;
    World::run(kWorldSize, [] {
        XMPI_Barrier(XMPI_COMM_WORLD);
        xmpi::profile::reset_mine();
        std::vector<int> const counts(kWorldSize, 1);
        std::vector<int> displs(kWorldSize);
        for (int i = 0; i < kWorldSize; ++i) {
            displs[static_cast<std::size_t>(i)] = i;
        }
        std::vector<int> send(kWorldSize, 1);
        std::vector<int> recv(kWorldSize, 0);
        XMPI_Alltoallv(
            send.data(), counts.data(), displs.data(), XMPI_INT, recv.data(), counts.data(),
            displs.data(), XMPI_INT, XMPI_COMM_WORLD);
        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.messages_sent, kWorldSize - 1u);
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(Profile, ResetClearsCounters) {
    World::run(2, [] {
        XMPI_Barrier(XMPI_COMM_WORLD);
        xmpi::profile::reset_mine();
        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.total_calls(), 0u);
        EXPECT_EQ(snapshot.messages_sent, 0u);
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

/// One row per entry of the counter table, so the test below follows the
/// table as it grows.
struct CounterField {
    char const* name;
    std::atomic<std::uint64_t> xmpi::profile::RankCounters::* live;
    std::uint64_t xmpi::profile::Snapshot::* snapshot;
};

std::vector<CounterField> const kCounterFields = {
#define XMPI_TEST_FIELD(head, name, doc) \
    {#name, &xmpi::profile::RankCounters::name, &xmpi::profile::Snapshot::name},
    XMPI_PROFILE_COUNTERS(XMPI_TEST_FIELD)
#undef XMPI_TEST_FIELD
};

TEST(Profile, EveryCounterSnapshotsSumsAndResets) {
    constexpr int kRanks = 3;
    // Distinct per counter and per rank, so a field copied into, summed
    // into or left out of the wrong slot cannot go unnoticed.
    auto const amount = [](std::size_t field, int rank) -> std::uint64_t {
        return (field + 1) * 100 + static_cast<std::uint64_t>(rank) + 1;
    };
    // Plain thread barriers, not XMPI ones: an XMPI barrier would bump the
    // very counters under test.
    std::barrier sync(kRanks);
    World::run_ranked(kRanks, [&](int rank) {
        sync.arrive_and_wait();
        if (rank == 0) {
            xmpi::profile::reset_all();
        }
        sync.arrive_and_wait();
        auto& mine = xmpi::profile::my_counters();
        for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
            (mine.*kCounterFields[i].live).fetch_add(amount(i, rank));
        }
        for (std::size_t c = 0; c < xmpi::profile::num_calls; ++c) {
            mine.calls[c].fetch_add(amount(c, rank));
        }
        sync.arrive_and_wait();
        if (rank == 0) {
            xmpi::profile::Snapshot total;
            for (int r = 0; r < kRanks; ++r) {
                auto const snapshot = xmpi::profile::snapshot_of(r);
                for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
                    EXPECT_EQ(snapshot.*kCounterFields[i].snapshot, amount(i, r))
                        << kCounterFields[i].name << " on rank " << r;
                }
                total += snapshot;
            }
            for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
                EXPECT_EQ(
                    total.*kCounterFields[i].snapshot,
                    amount(i, 0) + amount(i, 1) + amount(i, 2))
                    << kCounterFields[i].name;
            }
            for (std::size_t c = 0; c < xmpi::profile::num_calls; ++c) {
                EXPECT_EQ(total.calls[c], amount(c, 0) + amount(c, 1) + amount(c, 2));
            }
            xmpi::profile::reset_all();
            for (int r = 0; r < kRanks; ++r) {
                auto const snapshot = xmpi::profile::snapshot_of(r);
                for (auto const& field: kCounterFields) {
                    EXPECT_EQ(snapshot.*field.snapshot, 0u) << field.name << " on rank " << r;
                }
                EXPECT_EQ(snapshot.total_calls(), 0u);
            }
        }
        sync.arrive_and_wait();
    });
}

} // namespace
