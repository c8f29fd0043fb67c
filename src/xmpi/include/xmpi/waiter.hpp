/// @file waiter.hpp
/// @brief The one blocking primitive of xmpi: a per-rank eventcount.
///
/// Every blocking site in xmpi waits through Waiter::wait_until(pred). The
/// predicate is re-evaluated through a spin -> yield -> block ladder, and the
/// block rung parks only if no notify() happened since the predicate's last
/// evaluation. Every event that can turn some predicate true calls notify()
/// on the Waiter of each rank that may be waiting for it (the event -> notify
/// table is in DESIGN.md, "One waiter"). World owns one Waiter per rank slot.
///
/// Handshake (seq_cst on both sides, a Dekker pairing):
///
///     notifier: publish state; epoch_++; if sleepers_ > 0: lock mutex_, notify_all
///     waiter:   seen = epoch_; if pred(): return; lock mutex_; sleepers_++;
///               if epoch_ == seen: park on cv_; sleepers_--
///
/// Either the waiter's second epoch_ load observes the increment (it
/// re-evaluates instead of parking), or the notifier's sleepers_ load
/// observes the waiter's increment — and then the notifier's mutex_
/// acquisition cannot complete before the waiter is parked, so notify_all
/// reaches it. A waiter therefore never sleeps through an event.
///
/// mutex_ is a leaf lock: it is taken only inside notify() and the block
/// rung, never while a predicate runs. notify() may thus be called with any
/// caller lock held, and a predicate may take any lock of its own.
///
/// Draining: a rank's Waiter carries that rank's mailbox drain
/// (attach_drain). Every rung runs it before the predicate, with no caller
/// lock held, so whatever arrived in the rank's rings is matched first and
/// the ring slots it occupied are free again. No blocking site polls the
/// mailbox by hand, and a sender waiting for ring space on a rank that
/// waits anywhere in the library is always released.
///
/// Fibers (progress.hpp): inside a fiber, wait_until never spins or sleeps.
/// It parks the fiber and returns control to its rank thread, which drains
/// and re-checks the predicate whenever the epoch moved since the fiber
/// parked (on its own rungs, and in every polling call), and switches back
/// only once the predicate holds (or the deadline passed). A rank thread
/// with parked fibers resumes them on every rung and bounds its block rung
/// by their earliest deadline.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>

#include "xmpi/tuning.hpp"

namespace xmpi::detail {

class Waiter;

/// @brief Where a fiber parked: the Waiter it waits on, the epoch its
/// predicate last read false at, its deadline (or nullptr), and a way for
/// the rank thread to re-check the predicate without switching to the fiber.
struct FiberPark {
    Waiter* waiter = nullptr;
    std::uint64_t seen = 0;
    std::chrono::steady_clock::time_point const* deadline = nullptr;
    bool (*probe)(void* pred) = nullptr;
    void* pred = nullptr;
};

/// @brief The calling thread's fiber state, read on every rung (progress.cpp
/// keeps it current): whether it runs inside a fiber, and whether it owns
/// fibers that are not finished.
struct FiberSeam {
    bool in_fiber = false;
    bool owns_fibers = false;
};
extern constinit thread_local FiberSeam t_fiber_seam;

/// @name The fiber scheduler's side of the seam (progress.cpp)
/// @{
/// @brief Fiber side: parks the running fiber at @c park. Returns true iff
/// its rank found the predicate true (the fiber must not evaluate it again).
bool park_fiber(FiberPark const& park);
/// @brief Fiber side: false while the running fiber has its own exception
/// in flight; such a fiber waits in place instead of switching.
bool fiber_can_park();
/// @brief Rank side: resumes the calling thread's ready fibers, oldest first.
bool resume_fibers();
/// @brief Rank side: the earliest deadline a parked fiber of the calling
/// thread waits for, or time_point::max().
std::chrono::steady_clock::time_point fiber_deadline();
/// @}

/// @brief CPU-relax hint for spin loops.
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class alignas(64) Waiter {
public:
    using Clock = std::chrono::steady_clock;

    /// @brief Announces an event: every waiter re-evaluates its predicate.
    void notify() {
        epoch_.fetch_add(1, std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_seq_cst) > 0) {
            { std::lock_guard lock(mutex_); }
            cv_.notify_all();
        }
    }

    /// @brief Gives this Waiter its rank's mailbox drain, which every rung
    /// of a wait runs before its predicate. Set once, before the rank's
    /// thread first waits.
    void attach_drain(void (*drain)(void*), void* mailbox) {
        drain_ = drain;
        drain_arg_ = mailbox;
    }

    /// @brief Drains the rank's mailbox, if one is attached.
    void drain() {
        if (drain_ != nullptr) {
            drain_(drain_arg_);
        }
    }

    /// @brief Number of notify() calls so far. The mailbox uses it as its
    /// arrival counter: a drain is due whenever it moved since the last one.
    [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

    /// @brief Returns once @c pred() returns true.
    ///
    /// A predicate may instead take a `bool parked` argument, which is false
    /// in the spin and yield rungs and true in the block rung. Sites use it
    /// to keep slow-path checks (failure, revocation) out of the spin rungs:
    /// a completion that is microseconds away then wins over a failure that
    /// lands meanwhile, and the hot loop stays short.
    template <typename Predicate>
    void wait_until(Predicate&& pred) {
        (void)wait(pred, nullptr);
    }

    /// @brief Returns true once @c pred() returns true, or false once
    /// @c deadline has passed with @c pred() still false.
    template <typename Predicate>
    bool wait_until(Predicate&& pred, Clock::time_point deadline) {
        return wait(pred, &deadline);
    }

private:
    template <typename Predicate>
    static bool holds(Predicate& pred, bool parked) {
        if constexpr (std::is_invocable_v<Predicate&, bool>) {
            return pred(parked);
        } else {
            return pred();
        }
    }

    /// @brief Resumes the calling rank's ready fibers; one thread-local load
    /// when it owns none.
    static void resume_own_fibers() {
        if (t_fiber_seam.owns_fibers) [[unlikely]] {
            (void)resume_fibers();
        }
    }

    template <typename Predicate>
    bool wait(Predicate& pred, Clock::time_point const* deadline) {
        if (t_fiber_seam.in_fiber && fiber_can_park()) [[unlikely]] {
            return park(pred, deadline);
        }
        // In latency-bound patterns the event lands within microseconds, so
        // spinning skips the sleep/wake round trip. The yield rung hands the
        // core to the thread we wait on when the machine is oversubscribed.
        for (int i = tuning::spin_budget(); i > 0; --i) {
            drain();
            resume_own_fibers();
            if (holds(pred, false)) {
                return true;
            }
            spin_pause();
        }
        for (int i = tuning::yield_budget(); i > 0; --i) {
            drain();
            resume_own_fibers();
            if (holds(pred, false)) {
                return true;
            }
            std::this_thread::yield();
        }
        for (;;) {
            std::uint64_t const seen = epoch_.load(std::memory_order_seq_cst);
            drain();
            resume_own_fibers();
            if (holds(pred, true)) {
                return true;
            }
            if (deadline != nullptr && Clock::now() >= *deadline) {
                return false;
            }
            // A parked fiber's deadline (the rendezvous fallback) must
            // resume it even if no event arrives.
            Clock::time_point wake = deadline != nullptr ? *deadline : Clock::time_point::max();
            if (t_fiber_seam.owns_fibers) {
                wake = std::min(wake, fiber_deadline());
            }
            std::unique_lock lock(mutex_);
            sleepers_.fetch_add(1, std::memory_order_seq_cst);
            if (epoch_.load(std::memory_order_seq_cst) == seen) {
                if (wake == Clock::time_point::max()) {
                    cv_.wait(lock);
                } else {
                    cv_.wait_until(lock, wake);
                }
            }
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /// @brief wait() inside a fiber: evaluate, and park until the rank saw
    /// the predicate hold or the deadline passed.
    template <typename Predicate>
    bool park(Predicate& pred, Clock::time_point const* deadline) {
        auto const probe = [](void* erased) {
            return holds(*static_cast<Predicate*>(erased), true);
        };
        for (;;) {
            std::uint64_t const seen = epoch_.load(std::memory_order_seq_cst);
            drain();
            if (holds(pred, true)) {
                return true;
            }
            if (deadline != nullptr && Clock::now() >= *deadline) {
                return false;
            }
            if (park_fiber(FiberPark{this, seen, deadline, probe, &pred})) {
                return true;
            }
        }
    }

    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<int> sleepers_{0};
    void (*drain_)(void*) = nullptr;
    void* drain_arg_ = nullptr;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/// @brief Waiter::wait_until for a predicate over state guarded by
/// @c lock's mutex: @c pred runs with the mutex held, and the call returns
/// with it held. The mutex is released only while the caller sleeps.
template <typename Mutex, typename Predicate>
void wait_locked(Waiter& waiter, std::unique_lock<Mutex>& lock, Predicate&& pred) {
    if (pred()) {
        return;
    }
    lock.unlock();
    waiter.wait_until([&] {
        lock.lock();
        if (pred()) {
            return true;
        }
        lock.unlock();
        return false;
    });
}

} // namespace xmpi::detail
