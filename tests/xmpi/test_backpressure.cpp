/// @file test_backpressure.cpp
/// @brief A full ring backpressures its sender, and every wait of the
/// receiving rank releases it. With a 2-slot ring a burst of 1 KiB sends
/// (one packed eager slot each) fills the ring deterministically while the
/// receiver stays out of the library; the receiver then parks in one
/// particular wait that completes only after the sender's burst. The burst
/// can finish only if that wait drains the receiver's rings, so each case
/// hangs if its wait does not drain. Every case must deliver the burst in
/// send order and count the backpressure in ring_full_fallbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xmpi/chaos.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/tuning.hpp"
#include "xmpi/xmpi.hpp"

namespace xmpi::detail {
/// Holds a rank's mailbox mutex, so that rank's drains stall until the test
/// lets go: the one way to keep a rank that is already inside a wait from
/// draining.
struct MailboxTestAccess {
    static std::mutex& mutex(Mailbox& mailbox) { return mailbox.mutex_; }
};
} // namespace xmpi::detail

namespace {

namespace chaos = xmpi::chaos;
using xmpi::World;

constexpr int kMessages = 8;
constexpr std::size_t kInts = 256; // 1 KiB: above coalescing, below rendezvous
constexpr int kBurstTag = 7;

/// @brief A 2-slot ring for the test's duration.
struct SmallRing {
    xmpi::tuning::Transport saved = xmpi::tuning::transport();
    SmallRing() { xmpi::tuning::transport().ring_capacity = 2; }
    ~SmallRing() { xmpi::tuning::transport() = saved; }
};

/// @brief Sends kMessages numbered messages to @c dest; every one returns
/// success, and at least one of them waited for ring space.
void send_burst(XMPI_Comm comm, int dest) {
    std::vector<int> payload(kInts);
    for (int i = 0; i < kMessages; ++i) {
        payload.assign(kInts, i);
        ASSERT_EQ(
            XMPI_Send(payload.data(), static_cast<int>(kInts), XMPI_INT, dest, kBurstTag, comm),
            XMPI_SUCCESS);
    }
    EXPECT_GT(xmpi::profile::my_snapshot().ring_full_fallbacks, 0u);
}

/// @brief Receives the burst from @c source and checks send order.
void receive_burst(XMPI_Comm comm, int source) {
    std::vector<int> payload(kInts, -1);
    for (int i = 0; i < kMessages; ++i) {
        ASSERT_EQ(
            XMPI_Recv(
                payload.data(), static_cast<int>(kInts), XMPI_INT, source, kBurstTag, comm,
                XMPI_STATUS_IGNORE),
            XMPI_SUCCESS);
        ASSERT_EQ(payload.front(), i);
        ASSERT_EQ(payload.back(), i);
    }
}

/// @brief Returns once world rank @c sender waits for ring space. The caller
/// stays outside the library meanwhile, so nothing drains early.
void await_backpressure(World& world, int sender) {
    while (world.counters(sender).ring_full_fallbacks.load() == 0) {
        std::this_thread::yield();
    }
}

void await_flag(std::atomic<bool> const& flag) {
    while (!flag.load()) {
        std::this_thread::yield();
    }
}

/// @brief Calls XMPI_Epoch_sync until it hands out a communicator of a
/// later epoch than 0, and frees it.
void sync_past_epoch_zero() {
    XMPI_Comm comm = XMPI_COMM_NULL;
    do {
        if (comm != XMPI_COMM_NULL) {
            XMPI_Comm_free(&comm);
        }
        ASSERT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS);
    } while (comm->birth_epoch() == 0);
    XMPI_Comm_free(&comm);
}

TEST(Backpressure, IbarrierWaitReleasesTheSender) {
    SmallRing ring;
    World::run_ranked(2, [](int rank) {
        XMPI_Request barrier = XMPI_REQUEST_NULL;
        if (rank == 0) {
            send_burst(XMPI_COMM_WORLD, 1);
            ASSERT_EQ(XMPI_Ibarrier(XMPI_COMM_WORLD, &barrier), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&barrier, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
            ASSERT_EQ(XMPI_Ibarrier(XMPI_COMM_WORLD, &barrier), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&barrier, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            receive_burst(XMPI_COMM_WORLD, 0);
        }
    });
}

TEST(Backpressure, SynchronousSendWaitReleasesTheSender) {
    SmallRing ring;
    World::run_ranked(2, [](int rank) {
        int token = 5;
        if (rank == 0) {
            send_burst(XMPI_COMM_WORLD, 1);
            ASSERT_EQ(
                XMPI_Recv(&token, 1, XMPI_INT, 1, 2, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_SUCCESS);
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
            XMPI_Request ssend = XMPI_REQUEST_NULL;
            ASSERT_EQ(XMPI_Issend(&token, 1, XMPI_INT, 0, 2, XMPI_COMM_WORLD, &ssend), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&ssend, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            receive_burst(XMPI_COMM_WORLD, 0);
        }
    });
}

// The second ft_rendezvous wait: the receiver contributed to an agreement
// and waits for the sender's arrival.
TEST(Backpressure, AgreementArrivalWaitReleasesTheSender) {
    SmallRing ring;
    World::run_ranked(2, [](int rank) {
        int flag = 1;
        if (rank == 0) {
            send_burst(XMPI_COMM_WORLD, 1);
            ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
            ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
            receive_burst(XMPI_COMM_WORLD, 0);
        }
    });
}

// The first ft_rendezvous wait: the receiver starts a second agreement while
// rank 2 has not yet picked up the first one's result. Rank 2 contributed
// first and then stalls in its own drain (its mailbox mutex is held) until
// the sender's burst is through.
TEST(Backpressure, AgreementPreviousRoundWaitReleasesTheSender) {
    SmallRing ring;
    World world(3);
    XMPI_Comm const comm = world.world_comm();
    std::unique_lock held(xmpi::detail::MailboxTestAccess::mutex(world.mailbox(2)));
    std::atomic<bool> straggler_in{false};
    std::atomic<bool> burst_done{false};
    auto const agree = [&] {
        int flag = 1;
        ASSERT_EQ(XMPI_Comm_agree(comm, &flag), XMPI_SUCCESS);
    };
    std::thread sender([&] {
        world.attach_current_thread(0);
        await_flag(straggler_in);
        agree();
        send_burst(comm, 1);
        burst_done.store(true);
        agree();
        world.detach_current_thread();
    });
    std::thread receiver([&] {
        world.attach_current_thread(1);
        await_flag(straggler_in);
        agree();
        await_backpressure(world, 0);
        agree();
        receive_burst(comm, 0);
        world.detach_current_thread();
    });
    std::thread straggler([&] {
        world.attach_current_thread(2);
        agree();
        agree();
        world.detach_current_thread();
    });
    // Let the others in only once rank 2 contributed to the first round.
    auto& ft = comm->ft_sync();
    for (bool arrived = false; !arrived; std::this_thread::yield()) {
        std::lock_guard lock(ft.mutex);
        arrived = !ft.arrived_ranks.empty();
    }
    straggler_in.store(true);
    await_flag(burst_done);
    held.unlock();
    sender.join();
    receiver.join();
    straggler.join();
}

// Rank 1 starts a partitioned send to the sender and marks one of its two
// partitions ready; a helper thread marks the last one only after the burst.
TEST(Backpressure, PartitionedSendWaitReleasesTheSender) {
    SmallRing ring;
    std::atomic<bool> psend_started{false};
    std::atomic<bool> burst_done{false};
    World::run_ranked(2, [&](int rank) {
        int parts[2] = {10, 11};
        XMPI_Request request = XMPI_REQUEST_NULL;
        if (rank == 0) {
            parts[1] = -1;
            await_flag(psend_started);
            send_burst(XMPI_COMM_WORLD, 1);
            burst_done.store(true);
            ASSERT_EQ(
                XMPI_Precv_init(parts, 2, 1, XMPI_INT, 1, 3, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(parts[1], 11);
        } else {
            ASSERT_EQ(
                XMPI_Psend_init(parts, 2, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Pready(0, request), XMPI_SUCCESS);
            psend_started.store(true);
            std::thread last_partition([&] {
                await_flag(burst_done);
                EXPECT_EQ(XMPI_Pready(1, request), XMPI_SUCCESS);
            });
            await_backpressure(xmpi::detail::current_world(), 0);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            last_partition.join();
            receive_burst(XMPI_COMM_WORLD, 0);
        }
        ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
    });
}

// The receiver joins a membership transition that waits for the sender.
// The burst travels on a duplicate of the epoch-0 communicator, which the
// transition neither revokes nor gates.
TEST(Backpressure, EpochSyncReleasesTheSender) {
    SmallRing ring;
    World world(2, {}, 3);
    std::atomic<bool> open_joiner{false};
    auto const rank_main = [&](int rank) {
        world.attach_current_thread(rank);
        XMPI_Comm dup = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &dup), XMPI_SUCCESS);
        if (rank == 0) {
            send_burst(dup, 1);
            sync_past_epoch_zero();
        } else {
            await_backpressure(world, 0);
            open_joiner.store(true);
            while (!world.membership_pending()) {
                std::this_thread::yield();
            }
            sync_past_epoch_zero();
            receive_burst(dup, 0);
        }
        XMPI_Comm_free(&dup);
        world.detach_current_thread();
    };
    std::thread sender(rank_main, 0);
    std::thread receiver(rank_main, 1);
    std::thread joiner([&] {
        await_flag(open_joiner);
        (void)world.open_session();
        world.detach_current_thread();
    });
    sender.join();
    receiver.join();
    joiner.join();
}

// The receiver is a joiner parked in open_session: the members' transition
// comes only after the sender's burst to it. Its drains are held off until
// the sender is backpressured.
TEST(Backpressure, OpenSessionReleasesTheSender) {
    SmallRing ring;
    World world(2, {}, 3);
    constexpr int kJoinerSlot = 2;
    auto* const pair = new xmpi::Comm(&world, {0, kJoinerSlot});
    std::atomic<bool> held{false};
    std::thread member([&] {
        world.attach_current_thread(1);
        sync_past_epoch_zero();
        world.detach_current_thread();
    });
    std::thread sender([&] {
        world.attach_current_thread(0);
        await_flag(held);
        send_burst(pair, 1);
        sync_past_epoch_zero();
        world.detach_current_thread();
    });
    std::thread joiner([&] {
        ASSERT_EQ(world.open_session(), kJoinerSlot);
        receive_burst(pair, 0);
        world.detach_current_thread();
    });
    while (world.rank_slots() <= kJoinerSlot) {
        std::this_thread::yield();
    }
    {
        std::lock_guard hold(xmpi::detail::MailboxTestAccess::mutex(world.mailbox(kJoinerSlot)));
        held.store(true);
        await_backpressure(world, 0);
    }
    member.join();
    sender.join();
    joiner.join();
    pair->release();
}

// The receiver leaves the world; its leave waits for the sender's arrival
// at the transition. It re-attaches to its slot afterwards to read the burst.
TEST(Backpressure, LeaveSessionReleasesTheSender) {
    SmallRing ring;
    World world(2, {}, 2);
    auto const rank_main = [&](int rank) {
        world.attach_current_thread(rank);
        XMPI_Comm dup = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &dup), XMPI_SUCCESS);
        if (rank == 0) {
            send_burst(dup, 1);
            sync_past_epoch_zero();
        } else {
            await_backpressure(world, 0);
            world.leave_session();
            world.attach_current_thread(rank);
            receive_burst(dup, 0);
        }
        XMPI_Comm_free(&dup);
        world.detach_current_thread();
    };
    std::thread sender(rank_main, 0);
    std::thread leaver(rank_main, 1);
    sender.join();
    leaver.join();
}

// The consumer's half of the handshake. Without spin or yield rungs the
// backpressured sender parks at once, and the receiver drains only after a
// pause, in a receive whose message the sender sends after the burst: the
// one event that can wake the sender is the drain seeing its announcement.
TEST(Backpressure, DrainWakesAParkedSender) {
    SmallRing ring;
    xmpi::tuning::transport().spin_before_block = 0;
    xmpi::tuning::transport().yield_before_block = 0;
    World::run_ranked(2, [](int rank) {
        int token = 0;
        if (rank == 0) {
            send_burst(XMPI_COMM_WORLD, 1);
            ASSERT_EQ(XMPI_Send(&token, 1, XMPI_INT, 1, 2, XMPI_COMM_WORLD), XMPI_SUCCESS);
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ASSERT_EQ(
                XMPI_Recv(&token, 1, XMPI_INT, 0, 2, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_SUCCESS);
            receive_burst(XMPI_COMM_WORLD, 0);
        }
    });
}

// Many sends of one rank wait on one ring at once: each non-blocking
// broadcast is a fiber that queues its slot on the root's ring to rank 1.
// Rank 1 joins only once the root is backpressured, and a binomial
// broadcast sends nothing back, so only rank 1's drains can wake the root:
// every sweep must keep waking it while any of its sends still waits.
TEST(Backpressure, ManySendsWaitingOnOneRingAllComplete) {
    SmallRing ring;
    constexpr int kBroadcasts = 16;
    World::run_ranked(2, [](int rank) {
        std::vector<std::vector<int>> values(
            kBroadcasts, std::vector<int>(kInts, rank == 0 ? 0 : -1));
        if (rank == 0) {
            for (int i = 0; i < kBroadcasts; ++i) {
                values[static_cast<std::size_t>(i)].assign(kInts, i);
            }
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
        }
        std::vector<XMPI_Request> requests(kBroadcasts, XMPI_REQUEST_NULL);
        for (int i = 0; i < kBroadcasts; ++i) {
            ASSERT_EQ(
                XMPI_Ibcast(
                    values[static_cast<std::size_t>(i)].data(), static_cast<int>(kInts), XMPI_INT,
                    0, XMPI_COMM_WORLD, &requests[static_cast<std::size_t>(i)]),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Waitall(kBroadcasts, requests.data(), XMPI_STATUSES_IGNORE), XMPI_SUCCESS);
        for (int i = 0; i < kBroadcasts; ++i) {
            EXPECT_EQ(values[static_cast<std::size_t>(i)].front(), i);
            EXPECT_EQ(values[static_cast<std::size_t>(i)].back(), i);
        }
        if (rank == 0) {
            EXPECT_GT(xmpi::profile::my_snapshot().ring_full_fallbacks, 0u);
        }
    });
}

// Non-blocking sends stay local on a full ring: Isend, Issend and a
// persistent send's Start all return while the receiver stays outside the
// library. A blocking send after them queues behind them, and everything
// arrives in send order once the receiver receives.
TEST(Backpressure, NonBlockingSendsReturnOnAFullRing) {
    SmallRing ring;
    std::atomic<bool> all_returned{false};
    World::run_ranked(2, [&](int rank) {
        if (rank == 1) {
            await_flag(all_returned);
            std::vector<int> payload(kInts, -1);
            for (int i = 0; i <= kMessages; ++i) {
                ASSERT_EQ(
                    XMPI_Recv(
                        payload.data(), static_cast<int>(kInts), XMPI_INT, 0, kBurstTag,
                        XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                    XMPI_SUCCESS);
                ASSERT_EQ(payload.front(), i);
                ASSERT_EQ(payload.back(), i);
            }
            return;
        }
        int const count = static_cast<int>(kInts);
        std::vector<std::vector<int>> payloads(kMessages + 1);
        std::vector<XMPI_Request> requests(kMessages, XMPI_REQUEST_NULL);
        std::vector<XMPI_Request> persistent;
        for (int i = 0; i < kMessages; ++i) {
            auto& payload = payloads[static_cast<std::size_t>(i)];
            payload.assign(kInts, i);
            XMPI_Request& request = requests[static_cast<std::size_t>(i)];
            switch (i % 3) {
                case 0:
                    ASSERT_EQ(
                        XMPI_Isend(
                            payload.data(), count, XMPI_INT, 1, kBurstTag, XMPI_COMM_WORLD,
                            &request),
                        XMPI_SUCCESS);
                    break;
                case 1:
                    ASSERT_EQ(
                        XMPI_Issend(
                            payload.data(), count, XMPI_INT, 1, kBurstTag, XMPI_COMM_WORLD,
                            &request),
                        XMPI_SUCCESS);
                    break;
                default:
                    ASSERT_EQ(
                        XMPI_Send_init(
                            payload.data(), count, XMPI_INT, 1, kBurstTag, XMPI_COMM_WORLD,
                            &request),
                        XMPI_SUCCESS);
                    ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                    persistent.push_back(request);
                    break;
            }
        }
        EXPECT_GT(xmpi::profile::my_snapshot().ring_full_fallbacks, 0u);
        all_returned.store(true);
        auto& last = payloads[kMessages];
        last.assign(kInts, kMessages);
        ASSERT_EQ(
            XMPI_Send(last.data(), count, XMPI_INT, 1, kBurstTag, XMPI_COMM_WORLD), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Waitall(kMessages, requests.data(), XMPI_STATUSES_IGNORE), XMPI_SUCCESS);
        for (XMPI_Request& request: persistent) {
            ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
        }
    });
}

// MPI lets a caller free an active send request. Sends a full ring deferred
// into fibers still arrive in send order when their requests, buffers and
// communicator all go at once (as when kamping drops a result that owns
// them): the sender's exit finishes them. Nothing is diagnosed, and no
// early free is counted.
TEST(Backpressure, FreedDeferredSendsStillDeliverInOrder) {
    SmallRing ring;
    std::atomic<bool> all_freed{false};
    testing::internal::CaptureStderr();
    World::run_ranked(2, [&](int rank) {
        XMPI_Comm comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &comm), XMPI_SUCCESS);
        if (rank == 1) {
            await_flag(all_freed);
            receive_burst(comm, 0);
        } else {
            for (int i = 0; i < kMessages; ++i) {
                std::vector<int> payload(kInts, i);
                XMPI_Request request = XMPI_REQUEST_NULL;
                ASSERT_EQ(
                    XMPI_Isend(
                        payload.data(), static_cast<int>(kInts), XMPI_INT, 1, kBurstTag, comm,
                        &request),
                    XMPI_SUCCESS);
                ASSERT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
            }
            auto const counters = xmpi::profile::my_snapshot();
            EXPECT_GT(counters.ring_full_fallbacks, 0u);
            EXPECT_EQ(counters.engine_incomplete_destructions, 0u);
        }
        ASSERT_EQ(XMPI_Comm_free(&comm), XMPI_SUCCESS);
        all_freed.store(true);
    });
    // xmpi prints nothing; a sanitizer may print its own fiber warning.
    std::string const diagnostics = testing::internal::GetCapturedStderr();
    EXPECT_EQ(diagnostics.find("xmpi"), std::string::npos) << diagnostics;
}

// A receiver killed while its sender waits for ring space: the send
// reports the failure instead of waiting forever.
TEST(Backpressure, KilledReceiverFailsTheWaitingSend) {
    SmallRing ring;
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(23).kill_at_call(1, chaos::Call::barrier));
    World::run_ranked(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(kInts, 0);
            int err = XMPI_SUCCESS;
            for (int i = 0; i < kMessages && err == XMPI_SUCCESS; ++i) {
                err = XMPI_Send(
                    payload.data(), static_cast<int>(kInts), XMPI_INT, 1, kBurstTag,
                    XMPI_COMM_WORLD);
            }
            EXPECT_EQ(err, XMPI_ERR_PROC_FAILED);
            EXPECT_GT(xmpi::profile::my_snapshot().ring_full_fallbacks, 0u);
        } else {
            await_backpressure(xmpi::detail::current_world(), 0);
            XMPI_Barrier(XMPI_COMM_WORLD); // dies here
            FAIL() << "the chaos plan should have killed rank 1";
        }
    });
    EXPECT_EQ(chaos::take_fired_log().size(), 1u);
}

} // namespace
