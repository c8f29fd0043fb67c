/// @file test_waiter.cpp
/// @brief The Waiter eventcount: notifiers race waiters whose predicates read
/// state written outside any lock. No wait has a timeout, so a waiter that
/// sleeps through a notify hangs the test into its ctest TIMEOUT.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "xmpi/tuning.hpp"
#include "xmpi/waiter.hpp"

namespace {

using xmpi::detail::Waiter;

/// Runs a test body with the given ladder budgets, restoring the defaults.
/// Zero budgets send every wait straight to the block rung, where a missed
/// notify would park forever.
class Budgets {
public:
    Budgets(int spin, int yield)
        : spin_(xmpi::tuning::transport().spin_before_block),
          yield_(xmpi::tuning::transport().yield_before_block) {
        xmpi::tuning::transport().spin_before_block = spin;
        xmpi::tuning::transport().yield_before_block = yield;
    }
    ~Budgets() {
        xmpi::tuning::transport().spin_before_block = spin_;
        xmpi::tuning::transport().yield_before_block = yield_;
    }

private:
    int spin_;
    int yield_;
};

/// Returns @c value after a short busy delay. Predicates read their state
/// first and return late, like a predicate that drains rings after checking
/// a flag: a notify landing in between hits exactly the window a waiter must
/// not sleep through.
template <typename T>
T late(T value) {
    for (int i = 0; i < 200; ++i) {
        xmpi::detail::spin_pause();
    }
    return value;
}

/// N notifiers each publish K increments of a shared counter (relaxed
/// stores, no lock) and notify after each; M waiters wait for every value
/// in turn. Every increment must be observed by every waiter.
void race_counter(int notifiers, int waiters, int increments) {
    Waiter waiter;
    std::atomic<int> counter{0};
    int const total = notifiers * increments;
    std::vector<std::thread> threads;
    for (int w = 0; w < waiters; ++w) {
        threads.emplace_back([&] {
            for (int target = 1; target <= total; ++target) {
                waiter.wait_until(
                    [&] { return late(counter.load(std::memory_order_relaxed) >= target); });
            }
        });
    }
    for (int n = 0; n < notifiers; ++n) {
        threads.emplace_back([&] {
            for (int i = 0; i < increments; ++i) {
                counter.fetch_add(1, std::memory_order_relaxed);
                waiter.notify();
            }
        });
    }
    for (auto& thread: threads) {
        thread.join();
    }
    EXPECT_EQ(counter.load(), total);
}

TEST(Waiter, NotifiersRaceWaitersThroughTheBlockRung) {
    Budgets const budgets(0, 0);
    race_counter(4, 4, 2000);
}

TEST(Waiter, NotifiersRaceWaitersThroughTheFullLadder) {
    race_counter(3, 5, 2000);
}

/// Two threads hand a token back and forth through two Waiters, the
/// pattern of a ping-pong: each side's wait is satisfied by exactly one
/// notify of the other, so one missed wakeup deadlocks both.
TEST(Waiter, PingPongHandsOffThroughTwoWaiters) {
    Budgets const budgets(0, 0);
    constexpr int kRounds = 20000;
    Waiter ping_waiter;
    Waiter pong_waiter;
    std::atomic<int> ball{0};
    std::thread pong([&] {
        for (int round = 0; round < kRounds; ++round) {
            ping_waiter.wait_until(
                [&] { return late(ball.load(std::memory_order_acquire) == 2 * round + 1); });
            ball.store(2 * round + 2, std::memory_order_release);
            pong_waiter.notify();
        }
    });
    for (int round = 0; round < kRounds; ++round) {
        ball.store(2 * round + 1, std::memory_order_release);
        ping_waiter.notify();
        pong_waiter.wait_until(
            [&] { return late(ball.load(std::memory_order_acquire) == 2 * round + 2); });
    }
    pong.join();
    EXPECT_EQ(ball.load(), 2 * kRounds);
}

TEST(Waiter, DeadlineWaitReportsWhetherThePredicateHeld) {
    Waiter waiter;
    auto const soon = Waiter::Clock::now() + std::chrono::milliseconds(2);
    EXPECT_FALSE(waiter.wait_until([] { return false; }, soon));
    EXPECT_GE(Waiter::Clock::now(), soon);
    EXPECT_TRUE(waiter.wait_until([] { return true; }, soon));

    std::atomic<bool> ready{false};
    std::thread notifier([&] {
        ready.store(true, std::memory_order_relaxed);
        waiter.notify();
    });
    auto const far = Waiter::Clock::now() + std::chrono::hours(1);
    EXPECT_TRUE(waiter.wait_until([&] { return ready.load(std::memory_order_relaxed); }, far));
    notifier.join();
}

TEST(Waiter, ParkedArgumentIsTrueOnlyInTheBlockRung) {
    Budgets const budgets(16, 2);
    Waiter waiter;
    int unparked = 0;
    waiter.wait_until([&](bool parked) {
        if (!parked) {
            ++unparked;
        }
        return parked;
    });
    EXPECT_EQ(unparked, xmpi::tuning::spin_budget() + xmpi::tuning::yield_budget());
}

/// wait_locked evaluates the predicate with the caller's mutex held and
/// returns with it held; state guarded by that mutex is written by threads
/// that notify after unlocking.
TEST(Waiter, WaitLockedHoldsTheCallersMutex) {
    Budgets const budgets(0, 0);
    constexpr int kProducers = 4;
    constexpr int kItems = 500;
    Waiter waiter;
    std::mutex mutex;
    int produced = 0;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            for (int i = 0; i < kItems; ++i) {
                {
                    std::lock_guard lock(mutex);
                    ++produced;
                }
                waiter.notify();
            }
        });
    }
    std::unique_lock lock(mutex);
    xmpi::detail::wait_locked(
        waiter, lock, [&] { return late(produced == kProducers * kItems); });
    EXPECT_TRUE(lock.owns_lock());
    EXPECT_EQ(produced, kProducers * kItems);
    lock.unlock();
    for (auto& producer: producers) {
        producer.join();
    }
}

} // namespace
