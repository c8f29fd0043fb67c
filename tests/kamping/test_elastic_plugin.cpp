/// @file test_elastic_plugin.cpp
/// @brief The Elastic plugin: with_elastic re-runs the user's rebalance body
/// across membership epochs — grow (a session joining), shrink (a session
/// leaving), and failure (a member dying) all funnel through the same
/// resync loop, which packages the paper's Fig. 12 revoke/shrink/retry.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using namespace kamping;
using xmpi::World;

TEST(ElasticPlugin, NonElasticWorldIsASingleEpoch) {
    World::run(2, [] {
        FullCommunicator comm;
        EXPECT_EQ(comm.membership_epoch(), 0u);
        EXPECT_FALSE(comm.membership_changed());
        int runs = 0;
        int const sum = comm.with_elastic([&](FullCommunicator& c) {
            ++runs;
            return c.allreduce_single(send_buf(1), op(std::plus<>{}));
        });
        EXPECT_EQ(sum, 2);
        EXPECT_EQ(runs, 1); // nothing elastic happened: one attempt, no resync
    });
}

/// One with_elastic tick of a long-lived member: the body votes on stopping
/// (MIN-consensus, so every member of one allreduce instance agrees on the
/// same iteration) and records the membership it observed.
bool elastic_tick(
    FullCommunicator& comm, int vote, std::atomic<int>& max_size,
    std::atomic<int>& min_size) {
    return comm.with_elastic([&](FullCommunicator& c) {
        int const consensus = c.allreduce_single(send_buf(vote), op(ops::min{}));
        int const size = c.size_signed();
        int expected = max_size.load();
        while (size > expected && !max_size.compare_exchange_weak(expected, size)) {
        }
        expected = min_size.load();
        while (size < expected && !min_size.compare_exchange_weak(expected, size)) {
        }
        return consensus == 1;
    });
}

TEST(ElasticPlugin, WithElasticRidesGrowAndShrink) {
    World world(2, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};
    std::atomic<int> min_size{1 << 20};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            {
                // The default communicator wraps the epoch-0 world comm; the
                // plugin resyncs it in place whenever the membership moves.
                FullCommunicator comm;
                while (!elastic_tick(comm, stop.load() ? 1 : 0, max_size, min_size)) {
                }
                EXPECT_GE(comm.membership_epoch(), 2u); // rode grow + shrink
            }
            world.detach_current_thread();
        });
    }
    std::thread session([&] {
        // Joins, participates in whatever collective the members are mid-way
        // through (via the plugin), and leaves again. The join and the leave
        // each revoke the members' epoch; with_elastic absorbs both.
        world.run_session([&](int rank) {
            EXPECT_EQ(rank, 2);
            FullCommunicator comm(world.epoch_sync(), /*owning=*/true);
            while (comm.size() < 3 || comm.membership_changed()) {
                comm.sync_membership();
            }
            // One cooperative tick as a 3-wide world, then retire.
            (void)elastic_tick(comm, 0, max_size, min_size);
        });
    });
    session.join();
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_EQ(max_size.load(), 3); // the grown membership really computed
    EXPECT_LE(min_size.load(), 2);
    EXPECT_GE(world.membership_epoch(), 2u);
    EXPECT_EQ(world.last_transition_cause(), std::string("shrink"));
}

TEST(ElasticPlugin, WithElasticSubsumesFailureShrink) {
    World world(3, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};
    std::atomic<int> min_size{1 << 20};

    std::vector<std::thread> survivors;
    for (int rank = 0; rank < 2; ++rank) {
        survivors.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            {
                FullCommunicator comm;
                while (!elastic_tick(comm, stop.load() ? 1 : 0, max_size, min_size)) {
                }
                // The failure rode through the same loop as grow and
                // shrink — without any explicit revoke/shrink code.
                EXPECT_EQ(comm.size(), 2u);
                EXPECT_GE(comm.membership_epoch(), 1u);
            }
            world.detach_current_thread();
        });
    }
    std::thread doomed([&] {
        world.attach_current_thread(2);
        try {
            xmpi::inject_failure();
        } catch (xmpi::RankKilled const&) {
        }
        world.detach_current_thread();
    });
    doomed.join();
    stop.store(true);
    for (auto& thread: survivors) {
        thread.join();
    }
    EXPECT_TRUE(world.is_failed(2));
    EXPECT_EQ(min_size.load(), 2);
    EXPECT_EQ(world.last_transition_cause(), std::string("failure"));
}

/// Runs @c rank_main(rank) on every rank of the elastic world
/// World(n, {}, n), absorbing a rank's injected failure.
void run_elastic(int n, std::function<void(int)> const& rank_main) {
    World world(n, {}, n);
    std::vector<std::thread> ranks;
    for (int rank = 0; rank < n; ++rank) {
        ranks.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            try {
                rank_main(rank);
            } catch (xmpi::RankKilled const&) {
            }
            world.detach_current_thread();
        });
    }
    for (auto& thread: ranks) {
        thread.join();
    }
}

TEST(ElasticPlugin, RetriesNonRootedCollectiveOnSurvivors) {
    // The Fig. 12 recovery loop as one call: the body re-runs on the
    // survivors' epoch until it succeeds.
    run_elastic(4, [](int rank) {
        if (rank == 2) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        int const sum = comm.with_elastic([](FullCommunicator& c) {
            return c.allreduce_single(send_buf(1), op(std::plus<>{}));
        });
        EXPECT_EQ(sum, 3);
        EXPECT_EQ(comm.size_signed(), 3) << "the loop swapped in the survivor communicator";
    });
}

TEST(ElasticPlugin, RetriesRootedCollectiveOnSurvivors) {
    run_elastic(4, [](int rank) {
        if (rank == 3) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        // Root is re-derived from the current communicator inside the body,
        // so the retry works even though ranks shift after the shrink. A
        // bcast can complete on the ranks that never wait for the victim;
        // the barrier makes success collective, so either every survivor
        // returns or every survivor resyncs (a lone returner would leave
        // the others waiting for it in the epoch rendezvous).
        auto const data = comm.with_elastic([](FullCommunicator& c) {
            std::vector<int> payload;
            if (c.rank() == 0) {
                payload = {5, 6, 7};
            }
            auto received = c.bcast(send_recv_buf(std::move(payload)), root(0));
            c.barrier();
            return received;
        });
        EXPECT_EQ(data, (std::vector<int>{5, 6, 7}));
    });
}

TEST(ElasticPlugin, WithElasticExhaustsResyncs) {
    run_elastic(2, [](int) {
        FullCommunicator comm;
        int body_runs = 0;
        try {
            comm.with_elastic(
                [&](FullCommunicator&) -> int {
                    ++body_runs;
                    throw MpiFailureDetected("synthetic");
                },
                /*max_resyncs=*/2);
            FAIL() << "expected MpiError after exhausting resyncs";
        } catch (MpiError const& error) {
            EXPECT_EQ(error.error_code(), XMPI_ERR_OTHER);
        }
        EXPECT_EQ(body_runs, 2);
    });
}

TEST(ElasticPlugin, ResyncSpansCarryTheTransitionCause) {
    xmpi::profile::clear_spans();
    World world(2, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};
    std::atomic<int> min_size{1 << 20};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            {
                FullCommunicator comm;
                xmpi::profile::set_tracing_enabled(true);
                while (!elastic_tick(comm, stop.load() ? 1 : 0, max_size, min_size)) {
                }
            }
            world.detach_current_thread();
        });
    }
    std::thread session([&] { world.run_session([](int) {}); });
    session.join();
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    xmpi::profile::set_tracing_enabled(false);

    bool saw_grow = false;
    bool saw_shrink = false;
    for (auto const& span: xmpi::profile::take_spans()) {
        if (std::string(span.op) != "elastic_sync") {
            continue;
        }
        EXPECT_GE(span.epoch, 1u); // resync spans run under the fresh epoch
        if (std::string(span.algorithm) == "grow") {
            saw_grow = true;
        }
        if (std::string(span.algorithm) == "shrink") {
            saw_shrink = true;
        }
    }
    EXPECT_TRUE(saw_grow);
    EXPECT_TRUE(saw_shrink);
}

} // namespace
