/// @file test_transport_rings.cpp
/// @brief The lock-free transport core: per-(src,dst) rings, small-send
/// coalescing into batch slots, the locked overflow bypass when a ring
/// fills, receiver-pulled rendezvous (zero-copy claim and eager fallback),
/// and sender death mid-rendezvous. The wildcard stress tests here are the
/// designated TSan targets for the ring protocol (see the tsan-transport
/// preset): many concurrent producers against one consumer, with matching
/// spread across exact buckets and the wildcard list.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "xmpi/profile.hpp"
#include "xmpi/tuning.hpp"
#include "xmpi/xmpi.hpp"

namespace {

namespace chaos = xmpi::chaos;
using xmpi::World;

/// @brief RAII save/restore of the global transport knobs so a test can
/// tighten one knob without leaking it into later tests in the process.
struct KnobGuard {
    xmpi::tuning::Transport saved = xmpi::tuning::transport();
    ~KnobGuard() { xmpi::tuning::transport() = saved; }
};

// ---------------------------------------------------------------------------
// Ordering under concurrency (TSan targets)
// ---------------------------------------------------------------------------

// Many senders push numbered sequences at one receiver that matches
// everything through ANY_SOURCE/ANY_TAG wildcards. Per-source arrival order
// must be exactly send order even though the messages (a) come from
// concurrent producer threads, (b) land in different (source, tag) buckets,
// and (c) are arbitrated through the wildcard list by global arrival seq.
TEST(TransportRings, WildcardReceivesPreserveOrderUnderManySenders) {
    static constexpr int kSenders = 3;
    static constexpr int kPerSender = 200;
    World::run(kSenders + 1, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> next(kSenders + 1, 0);
            for (int i = 0; i < kSenders * kPerSender; ++i) {
                int payload[2] = {-1, -1};
                XMPI_Status status;
                XMPI_Recv(
                    payload, 2, XMPI_INT, XMPI_ANY_SOURCE, XMPI_ANY_TAG, XMPI_COMM_WORLD,
                    &status);
                ASSERT_GE(status.source, 1);
                ASSERT_LE(status.source, kSenders);
                ASSERT_EQ(payload[0], status.source);
                // Non-overtaking per source, across all tag buckets.
                ASSERT_EQ(payload[1], next[static_cast<std::size_t>(status.source)]++);
                ASSERT_EQ(status.tag, payload[1] % 5);
            }
            for (std::size_t src = 1; src < next.size(); ++src) {
                EXPECT_EQ(next[src], kPerSender);
            }
        } else {
            for (int seq = 0; seq < kPerSender; ++seq) {
                int const payload[2] = {rank, seq};
                // Vary the tag so matching crosses bucket boundaries while
                // the wildcard receiver must still see per-source seq order.
                XMPI_Send(payload, 2, XMPI_INT, 0, seq % 5, XMPI_COMM_WORLD);
            }
        }
    });
}

// Same stress through the *posted* path: the receiver pre-posts a window of
// wildcard Irecvs, so producers race against a consumer that completes
// tickets instead of parking unexpected messages.
TEST(TransportRings, PostedWildcardWindowPreservesOrder) {
    static constexpr int kSenders = 3;
    static constexpr int kPerSender = 64;
    static constexpr int kTotal = kSenders * kPerSender;
    World::run(kSenders + 1, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> payloads(2 * kTotal, -1);
            std::vector<XMPI_Request> requests(kTotal);
            for (int i = 0; i < kTotal; ++i) {
                XMPI_Irecv(
                    &payloads[static_cast<std::size_t>(2 * i)], 2, XMPI_INT,
                    XMPI_ANY_SOURCE, XMPI_ANY_TAG, XMPI_COMM_WORLD,
                    &requests[static_cast<std::size_t>(i)]);
            }
            XMPI_Barrier(XMPI_COMM_WORLD); // window is posted; open the flood
            std::vector<int> next(kSenders + 1, 0);
            for (int i = 0; i < kTotal; ++i) {
                XMPI_Status status;
                XMPI_Wait(&requests[static_cast<std::size_t>(i)], &status);
                // Wildcard tickets complete in posting order = arrival order,
                // so per-source sequences must be monotone across the window.
                int const src = payloads[static_cast<std::size_t>(2 * i)];
                ASSERT_EQ(src, status.source);
                ASSERT_EQ(
                    payloads[static_cast<std::size_t>(2 * i + 1)],
                    next[static_cast<std::size_t>(src)]++);
            }
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            for (int seq = 0; seq < kPerSender; ++seq) {
                int const payload[2] = {rank, seq};
                XMPI_Send(payload, 2, XMPI_INT, 0, seq % 3, XMPI_COMM_WORLD);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Ring overflow
// ---------------------------------------------------------------------------

// With a tiny ring, a sender that outruns the receiver must take the locked
// overflow bypass (counted as ring_full_fallbacks) and the bypass must
// preserve send order relative to the entries still queued in the ring.
TEST(TransportRings, FullRingFallsBackToLockedBypassInOrder) {
    KnobGuard guard;
    xmpi::tuning::transport().ring_capacity = 2; // minimum after rounding
    static constexpr int kMessages = 50;
    static constexpr std::size_t kInts = 256; // 1 KiB: above coalescing, below rendezvous
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            xmpi::profile::reset_mine();
            std::vector<int> payload(kInts);
            for (int i = 0; i < kMessages; ++i) {
                payload.assign(kInts, i);
                XMPI_Send(
                    payload.data(), static_cast<int>(kInts), XMPI_INT, 1, 4,
                    XMPI_COMM_WORLD);
            }
            auto const snapshot = xmpi::profile::my_snapshot();
            // 50 one-slot messages through a 2-slot ring: unless the
            // receiver drained perfectly in lockstep, some sends overflowed.
            EXPECT_EQ(
                snapshot.ring_enqueues + snapshot.ring_full_fallbacks,
                static_cast<std::uint64_t>(kMessages));
            XMPI_Barrier(XMPI_COMM_WORLD);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD); // all sends are already delivered
            std::vector<int> payload(kInts, -1);
            for (int i = 0; i < kMessages; ++i) {
                XMPI_Recv(
                    payload.data(), static_cast<int>(kInts), XMPI_INT, 0, 4,
                    XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
                ASSERT_EQ(payload.front(), i);
                ASSERT_EQ(payload.back(), i);
            }
        }
    });
}

// A receiver that stays out of XMPI never drains, so a sender overruns the
// 2-slot ring deterministically. Every entry kind that fills a slot — a batch
// of small sends, a packed eager payload, a rendezvous descriptor (which
// falls back to eager while nobody claims it) — must then take the locked
// overflow and still arrive intact and in send order.
TEST(TransportRings, EveryEntryKindOverflowsInOrder) {
    KnobGuard guard;
    xmpi::tuning::transport().ring_capacity = 2;
    struct Case {
        std::size_t ints;
        int messages;
    };
    // 256 B coalesces, 1 KiB is packed eager, 64 KiB is a rendezvous.
    for (Case const c: {Case{64, 400}, Case{256, 8}, Case{16 * 1024, 4}}) {
        std::atomic<bool> sent{false};
        World::run_ranked(2, [&](int rank) {
            int const count = static_cast<int>(c.ints);
            std::vector<int> payload(c.ints, -1);
            if (rank == 0) {
                xmpi::profile::reset_mine();
                for (int i = 0; i < c.messages; ++i) {
                    payload.assign(c.ints, i);
                    XMPI_Send(payload.data(), count, XMPI_INT, 1, 5, XMPI_COMM_WORLD);
                }
                auto const s = xmpi::profile::my_snapshot();
                EXPECT_GT(s.ring_full_fallbacks, 0u) << c.ints << " ints";
                EXPECT_EQ(
                    s.coalesced_sends + s.ring_enqueues + s.ring_full_fallbacks,
                    static_cast<std::uint64_t>(c.messages));
                sent.store(true);
            } else {
                while (!sent.load()) {
                    std::this_thread::yield();
                }
                for (int i = 0; i < c.messages; ++i) {
                    XMPI_Recv(
                        payload.data(), count, XMPI_INT, 0, 5, XMPI_COMM_WORLD,
                        XMPI_STATUS_IGNORE);
                    ASSERT_EQ(payload.front(), i) << c.ints << " ints";
                    ASSERT_EQ(payload.back(), i) << c.ints << " ints";
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Small-send coalescing
// ---------------------------------------------------------------------------

// Self-sends make coalescing deterministic: the consumer is the sending
// thread itself, so nothing can drain the open batch between two sends.
// The first send opens a batch slot; the following ones must append to it.
TEST(TransportRings, BackToBackSmallSendsCoalesceIntoOneBatch) {
    static constexpr int kMessages = 8;
    World::run(1, [] {
        xmpi::profile::reset_mine();
        for (int i = 0; i < kMessages; ++i) {
            XMPI_Send(&i, 1, XMPI_INT, 0, 6, XMPI_COMM_WORLD);
        }
        auto const sent = xmpi::profile::my_snapshot();
        EXPECT_EQ(sent.fastpath_sends, static_cast<std::uint64_t>(kMessages));
        EXPECT_EQ(sent.ring_enqueues, 1u); // one batch slot...
        EXPECT_EQ(
            sent.coalesced_sends,
            static_cast<std::uint64_t>(kMessages - 1)); // ...everything else rode it
        EXPECT_EQ(sent.ring_full_fallbacks, 0u);
        for (int i = 0; i < kMessages; ++i) {
            int value = -1;
            XMPI_Recv(&value, 1, XMPI_INT, 0, 6, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, i); // append order == receive order
        }
    });
}

// A batch never aggregates past its watermark: once the open slot is full,
// the next small send opens a fresh slot instead of growing without bound.
TEST(TransportRings, CoalescingRespectsTheWatermark) {
    KnobGuard guard;
    auto& knobs = xmpi::tuning::transport();
    knobs.coalesce_max_bytes = 64;
    knobs.coalesce_watermark = 256; // a couple of records per batch at most
    World::run(1, [] {
        constexpr int kMessages = 32;
        long payload[8] = {};
        xmpi::profile::reset_mine();
        for (int i = 0; i < kMessages; ++i) {
            payload[0] = i;
            XMPI_Send(payload, 8, XMPI_LONG, 0, 2, XMPI_COMM_WORLD);
        }
        auto const sent = xmpi::profile::my_snapshot();
        EXPECT_EQ(sent.fastpath_sends, static_cast<std::uint64_t>(kMessages));
        // 64-byte records against a 256-byte watermark: several slots, but
        // far fewer than one per message.
        EXPECT_GT(sent.ring_enqueues, 1u);
        EXPECT_LT(sent.ring_enqueues, static_cast<std::uint64_t>(kMessages));
        for (int i = 0; i < kMessages; ++i) {
            long received[8] = {-1};
            XMPI_Recv(received, 8, XMPI_LONG, 0, 2, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(received[0], i);
        }
    });
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

// A rendezvous sender whose receiver never shows up within the deadline
// must fall back to an eager copy: the send completes locally, the payload
// survives the sender reusing its buffer, and nobody zero-copies.
TEST(TransportRings, RendezvousFallsBackToEagerWhenUnclaimed) {
    KnobGuard guard;
    xmpi::tuning::transport().rendezvous_fallback_us = 1;
    static constexpr std::size_t kInts = (64 * 1024) / sizeof(int);
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> payload(kInts, 3);
            xmpi::profile::reset_mine();
            // The receiver posts only after the barrier, and we reach the
            // barrier only after this send returns — so the descriptor
            // cannot be claimed and the deadline must fire.
            XMPI_Send(
                payload.data(), static_cast<int>(kInts), XMPI_INT, 1, 1,
                XMPI_COMM_WORLD);
            auto const snapshot = xmpi::profile::my_snapshot();
            EXPECT_GE(snapshot.fastpath_sends + snapshot.ring_full_fallbacks, 1u);
            EXPECT_EQ(snapshot.bytes_zero_copied, 0u);
            payload.assign(kInts, -1); // the eager copy must be independent
            XMPI_Barrier(XMPI_COMM_WORLD);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            std::vector<int> received(kInts, 0);
            XMPI_Recv(
                received.data(), static_cast<int>(kInts), XMPI_INT, 0, 1,
                XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(received.front(), 3);
            EXPECT_EQ(received.back(), 3);
            auto const mine = xmpi::profile::my_snapshot();
            EXPECT_EQ(mine.rendezvous_transfers, 0u); // consumed the fallback copy
        }
    });
}

// A synchronous-mode large send keeps Ssend semantics through the fallback:
// even after eagering the payload, the sender must still block until the
// receiver has matched the message.
TEST(TransportRings, SynchronousSendBlocksAcrossEagerFallback) {
    KnobGuard guard;
    xmpi::tuning::transport().rendezvous_fallback_us = 1;
    static constexpr std::size_t kInts = (64 * 1024) / sizeof(int);
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> payload(kInts, 9);
            XMPI_Request request;
            XMPI_Issend(
                payload.data(), static_cast<int>(kInts), XMPI_INT, 1, 1,
                XMPI_COMM_WORLD, &request);
            int flag = 1;
            XMPI_Test(&request, &flag, XMPI_STATUS_IGNORE);
            // The receiver cannot have matched yet: it posts its receive
            // only after the barrier below, which we have not entered.
            EXPECT_EQ(flag, 0);
            XMPI_Barrier(XMPI_COMM_WORLD);
            XMPI_Wait(&request, XMPI_STATUS_IGNORE);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            std::vector<int> received(kInts, 0);
            XMPI_Recv(
                received.data(), static_cast<int>(kInts), XMPI_INT, 0, 1,
                XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(received.front(), 9);
            EXPECT_EQ(received.back(), 9);
        }
    });
}

// ---------------------------------------------------------------------------
// Sender death mid-rendezvous
// ---------------------------------------------------------------------------

// The sender dies right after publishing a rendezvous descriptor. The
// receiver must not hang waiting for bytes that will never be pushed: it
// observes the abandoned descriptor (or the failure flag) and fails the
// receive with XMPI_ERR_PROC_FAILED. The one benign alternative is that the
// receiver's claim raced ahead of the death — then the copy completed from
// the still-live buffer and the data must be intact.
TEST(TransportRings, SenderDeathAfterPublishFailsTheReceive) {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(
        chaos::FaultPlan(11).kill_at_hook(0, chaos::Hook::ft_rendezvous_publish));
    static constexpr std::size_t kInts = (64 * 1024) / sizeof(int);
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> payload(kInts, 5);
            XMPI_Send(
                payload.data(), static_cast<int>(kInts), XMPI_INT, 1, 1,
                XMPI_COMM_WORLD); // dies inside
            FAIL() << "the chaos plan should have killed rank 0";
        } else {
            std::vector<int> received(kInts, -1);
            XMPI_Status status;
            int const err = XMPI_Recv(
                received.data(), static_cast<int>(kInts), XMPI_INT, 0, 1,
                XMPI_COMM_WORLD, &status);
            if (err == XMPI_SUCCESS) {
                // Claim won the race against the sender's unwind.
                EXPECT_EQ(received.front(), 5);
                EXPECT_EQ(received.back(), 5);
            } else {
                EXPECT_EQ(err, XMPI_ERR_PROC_FAILED);
            }
        }
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 0);
}

// ---------------------------------------------------------------------------
// Tuning
// ---------------------------------------------------------------------------

// The spin budget adapts to the machine: on a single hardware thread
// spinning only steals cycles from the thread being waited on, so the
// effective budget collapses to zero unless explicitly forced via env.
TEST(TransportRings, SpinBudgetCollapsesOnSingleHardwareThread) {
    if (std::getenv("XMPI_SPIN_BUDGET") != nullptr) {
        GTEST_SKIP() << "explicit XMPI_SPIN_BUDGET overrides the heuristic";
    }
    KnobGuard guard;
    xmpi::tuning::transport().spin_before_block = 1234;
    int const budget = xmpi::tuning::spin_budget();
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_EQ(budget, 1234);
    } else {
        EXPECT_EQ(budget, 0);
    }
}

} // namespace
