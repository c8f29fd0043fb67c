/// @file progress.cpp
/// @brief Non-blocking operations as fibers on their initiating rank (see
/// progress.hpp).
#include "xmpi/progress.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "kassert/kassert.hpp"
#include "xmpi/error.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/request.hpp"
#include "xmpi/waiter.hpp"
#include "xmpi/world.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define XMPI_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XMPI_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define XMPI_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XMPI_FIBER_TSAN 1
#endif
#endif
#ifdef XMPI_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef XMPI_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace xmpi::detail {
constinit thread_local FiberSeam t_fiber_seam;
}

namespace xmpi::progress {
namespace {

using xmpi::detail::FiberPark;
using xmpi::detail::t_fiber_seam;
using xmpi::detail::Waiter;

#ifdef XMPI_FIBER_ASAN
constexpr std::size_t kStackBytes = std::size_t{1} << 20; // instrumented frames are larger
#else
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
#endif

std::size_t page_bytes() {
    static std::size_t const page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/// Finished stacks a thread keeps for reuse; further ones are unmapped, so
/// a larger burst of in-flight operations does not stay resident. Keeping
/// fewer than a burst makes every burst map its stacks afresh: with 64,
/// 512 in-flight Iallreduce per rank ran about 8x slower.
constexpr std::size_t kMaxFreeStacks = 512;

/// @brief Maps a stack with a PROT_NONE guard page below it, so an
/// overflow faults instead of corrupting the neighbouring mapping. Returns
/// the usable bottom (lowest address); throws std::bad_alloc if either
/// step fails.
char* map_stack() {
    void* base = mmap(
        nullptr, page_bytes() + kStackBytes, PROT_READ | PROT_WRITE,
        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) {
        throw std::bad_alloc();
    }
    if (mprotect(base, page_bytes(), PROT_NONE) != 0) {
        munmap(base, page_bytes() + kStackBytes);
        throw std::bad_alloc();
    }
    return static_cast<char*>(base) + page_bytes();
}

void unmap_stack(char* bottom) {
    munmap(bottom - page_bytes(), page_bytes() + kStackBytes);
}

/// @brief Thrown at a fiber's park point to unwind it (its rank failed or
/// exits). Nothing but the fiber entry catches it.
struct FiberUnwind {};

class Scheduler;
Scheduler& scheduler();

/// @brief One non-blocking operation running on its rank's thread.
struct Fiber {
    std::function<int()> body;
    xmpi::detail::RankContext ctx; ///< initiating rank
    char const* op = "";           ///< operation name for tracing spans
    double started_s = 0.0;

    char* stack = nullptr;
    ucontext_t context{};
    FiberPark park{};           ///< where it waits while parked
    bool satisfied = false;     ///< the rank saw the parked predicate hold
    bool unwind_requested = false;
    int uncaught_base = 0;      ///< uncaught exceptions of the rank at switch-in
    profile::ThreadNotes notes; ///< tracing notes while switched out
    void* fake_stack = nullptr; ///< ASan's per-fiber fake stack
    void* tsan_fiber = nullptr;

    /// Written before the releasing store of done, read after acquiring it.
    int error = XMPI_SUCCESS;
    std::atomic<bool> done{false};

    [[nodiscard]] bool complete() const { return done.load(std::memory_order_acquire); }
};

profile::RankCounters* counters_of(xmpi::detail::RankContext const& ctx) {
    return ctx.world == nullptr ? nullptr : &ctx.world->counters(ctx.world_rank);
}

bool rank_failed(xmpi::detail::RankContext const& ctx) {
    return ctx.world != nullptr && ctx.world->is_failed(ctx.world_rank);
}

/// @brief The fibers of one thread, oldest first, and the switches between
/// them and the thread's own stack.
class Scheduler {
public:
    ~Scheduler() {
        unwind_all();
        for (char* stack: free_stacks_) {
            unmap_stack(stack);
        }
    }

    /// @brief Runs @c fiber until its first block. Throws std::bad_alloc,
    /// with nothing started, if no stack can be mapped.
    void start(std::shared_ptr<Fiber> const& fiber) {
        live_.push_back(fiber);
        try {
            fiber->stack = acquire_stack();
        } catch (...) {
            live_.pop_back();
            throw;
        }
        getcontext(&fiber->context);
        fiber->context.uc_stack.ss_sp = fiber->stack;
        fiber->context.uc_stack.ss_size = kStackBytes;
        fiber->context.uc_link = nullptr;
        makecontext(&fiber->context, &entry, 0);
#ifdef XMPI_FIBER_TSAN
        fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
        t_fiber_seam.owns_fibers = true;
        if (auto* counters = counters_of(fiber->ctx)) {
            counters->engine_tasks.fetch_add(1, std::memory_order_relaxed);
            auto const live = static_cast<std::uint64_t>(live_.size());
            if (live > counters->engine_queue_depth_max.load(std::memory_order_relaxed)) {
                counters->engine_queue_depth_max.store(live, std::memory_order_relaxed);
            }
        }
        // Eager start: run until the first block. Only the rank's own code
        // initiates, never a fiber or a resume pass.
        KASSERT(current_ == nullptr && !resuming_, "a fiber starts only from its rank's code");
        switch_to(*fiber);
        reap();
    }

    /// @brief Resumes every ready fiber once, oldest first.
    bool resume_ready() {
        if (current_ != nullptr || resuming_) {
            return false;
        }
        resuming_ = true;
        bool ran = false;
        for (std::size_t i = 0; i < live_.size(); ++i) {
            Fiber& fiber = *live_[i];
            if (!fiber.complete() && ready(fiber)) {
                switch_to(fiber);
                ran = true;
            }
        }
        resuming_ = false;
        reap();
        return ran;
    }

    /// @brief Fiber side of a block: record where it waits, switch to the
    /// rank, and on return either unwind or report what the rank saw.
    bool park(FiberPark const& park) {
        Fiber& fiber = *current_;
        KASSERT(park.waiter == &xmpi::detail::waiter_of(fiber.ctx),
                "a fiber parks only on its own rank's Waiter");
        fiber.park = park;
        fiber.satisfied = false;
        suspend(fiber);
        fiber.park = FiberPark{}; // its frame is about to return
        if (fiber.unwind_requested) {
            throw FiberUnwind{}; // it cannot park again until caught (can_park)
        }
        return fiber.satisfied;
    }

    /// @brief A fiber with its own exception in flight never switches: the
    /// C++ runtime keeps one exception stack per thread.
    [[nodiscard]] bool can_park() const {
        return current_ != nullptr && std::uncaught_exceptions() == current_->uncaught_base;
    }

    [[nodiscard]] Waiter::Clock::time_point earliest_deadline() const {
        auto earliest = Waiter::Clock::time_point::max();
        for (auto const& fiber: live_) {
            if (fiber->park.deadline != nullptr) {
                earliest = std::min(earliest, *fiber->park.deadline);
            }
        }
        return earliest;
    }

    /// @brief Waits until @c fiber finished; the wait's rungs resume it.
    static void await(Fiber& fiber) {
        xmpi::detail::waiter_of(fiber.ctx).wait_until([&] { return fiber.complete(); });
    }

    /// @brief Unwinds every fiber this thread owns and waits until they are
    /// gone.
    void unwind_all() {
        if (live_.empty()) {
            return;
        }
        for (auto const& fiber: live_) {
            fiber->unwind_requested = true;
        }
        auto const ctx = live_.front()->ctx;
        xmpi::detail::waiter_of(ctx).wait_until([&] { return live_.empty(); });
    }

private:
    /// @brief Whether the rank should switch to @c fiber now. A parked
    /// fiber is re-checked only if its Waiter's epoch moved; the rank's
    /// mailbox is drained and the predicate then runs here, on the rank's
    /// stack, and the switch happens only once it holds.
    static bool ready(Fiber& fiber) {
        if (fiber.unwind_requested || rank_failed(fiber.ctx)) {
            fiber.unwind_requested = true;
            return true;
        }
        FiberPark& park = fiber.park;
        if (park.deadline != nullptr && Waiter::Clock::now() >= *park.deadline) {
            return true;
        }
        std::uint64_t const epoch = park.waiter->epoch();
        if (epoch == park.seen) {
            return false;
        }
        park.seen = epoch;
        park.waiter->drain();
        try {
            fiber.satisfied = park.probe(park.pred);
        } catch (...) {
            return true; // let the fiber re-evaluate, and throw, on its own stack
        }
        return fiber.satisfied;
    }

    void switch_to(Fiber& fiber) {
        current_ = &fiber;
        fiber.uncaught_base = std::uncaught_exceptions();
        t_fiber_seam.in_fiber = true;
        profile::ThreadNotes const rank_notes = profile::exchange_thread_notes(fiber.notes);
#ifdef XMPI_FIBER_ASAN
        void* fake_stack = nullptr;
        __sanitizer_start_switch_fiber(&fake_stack, fiber.stack, kStackBytes);
#endif
#ifdef XMPI_FIBER_TSAN
        rank_tsan_ = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(fiber.tsan_fiber, 0);
#endif
        swapcontext(&rank_context_, &fiber.context);
#ifdef XMPI_FIBER_ASAN
        __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
        fiber.notes = profile::exchange_thread_notes(rank_notes);
        t_fiber_seam.in_fiber = false;
        current_ = nullptr;
        if (fiber.complete()) {
#ifdef XMPI_FIBER_TSAN
            __tsan_destroy_fiber(fiber.tsan_fiber);
#endif
            release_stack(std::exchange(fiber.stack, nullptr));
        }
    }

    void suspend(Fiber& fiber) {
#ifdef XMPI_FIBER_ASAN
        __sanitizer_start_switch_fiber(&fiber.fake_stack, rank_stack_, rank_stack_bytes_);
#endif
#ifdef XMPI_FIBER_TSAN
        __tsan_switch_to_fiber(rank_tsan_, 0);
#endif
        swapcontext(&fiber.context, &rank_context_);
#ifdef XMPI_FIBER_ASAN
        __sanitizer_finish_switch_fiber(fiber.fake_stack, &rank_stack_, &rank_stack_bytes_);
#endif
    }

    /// @brief First frame of every fiber stack. Runs the body, completes
    /// the fiber, and leaves its stack for good.
    static void entry() {
        Scheduler& self = scheduler();
        Fiber& fiber = *self.current_;
#ifdef XMPI_FIBER_ASAN
        __sanitizer_finish_switch_fiber(nullptr, &self.rank_stack_, &self.rank_stack_bytes_);
#endif
        fiber.error = run(fiber);
        fiber.done.store(true, std::memory_order_release);
        // Threads other than the owner may wait on this request.
        xmpi::detail::waiter_of(fiber.ctx).notify();
#ifdef XMPI_FIBER_ASAN
        __sanitizer_start_switch_fiber(nullptr, self.rank_stack_, self.rank_stack_bytes_);
#endif
#ifdef XMPI_FIBER_TSAN
        __tsan_switch_to_fiber(self.rank_tsan_, 0);
#endif
        setcontext(&self.rank_context_);
    }

    static int run(Fiber& fiber) {
        int error = XMPI_SUCCESS;
        try {
            error = fiber.body();
        } catch (FiberUnwind const&) {
            error = XMPI_ERR_PROC_FAILED;
        } catch (RankKilled const&) {
            // A fault fired while the fiber acted for its rank: it fails like
            // the rank's own collectives do (see DESIGN.md).
            error = XMPI_ERR_PROC_FAILED;
        } catch (...) {
            error = XMPI_ERR_INTERN;
        }
        fiber.body = nullptr;
        if (profile::tracing_enabled()) {
            profile::Span span;
            span.op = fiber.op;
            span.algorithm = profile::take_algorithm();
            span.world_rank = fiber.ctx.world_rank;
            span.start_s = fiber.started_s;
            span.duration_s = wtime() - fiber.started_s;
            profile::record_span(span);
        }
        return error;
    }

    void reap() {
        std::erase_if(live_, [](auto const& fiber) { return fiber->complete(); });
        t_fiber_seam.owns_fibers = !live_.empty();
    }

    char* acquire_stack() {
        if (free_stacks_.empty()) {
            return map_stack();
        }
        char* stack = free_stacks_.back();
        free_stacks_.pop_back();
#ifdef XMPI_FIBER_ASAN
        // The last fiber left by setcontext, so its frames' redzones remain.
        __asan_unpoison_memory_region(stack, kStackBytes);
#endif
        return stack;
    }

    void release_stack(char* stack) {
        if (free_stacks_.size() < kMaxFreeStacks) {
            free_stacks_.push_back(stack);
        } else {
            unmap_stack(stack);
        }
    }

    friend Scheduler& scheduler();

    std::vector<std::shared_ptr<Fiber>> live_; ///< unfinished fibers, oldest first
    Fiber* current_ = nullptr;                 ///< the fiber running now
    bool resuming_ = false;                    ///< inside resume_ready()
    /// Stacks of finished fibers (at most kMaxFreeStacks), kept until the
    /// thread exits: mapping a fresh one (and the page faults that follow)
    /// costs more than the operation it would carry.
    std::vector<char*> free_stacks_;
    ucontext_t rank_context_{};
    void const* rank_stack_ = nullptr; ///< the thread's own stack (ASan)
    std::size_t rank_stack_bytes_ = 0;
    void* rank_tsan_ = nullptr;
};

Scheduler& scheduler() {
    thread_local Scheduler instance;
    return instance;
}

/// @brief Request handle of a fiber. test() and wait() resume the
/// calling rank's ready fibers; cancel() is refused (cancelling a
/// non-blocking collective is erroneous in MPI).
class FiberRequest final : public Request {
public:
    explicit FiberRequest(std::shared_ptr<Fiber> fiber) : fiber_(std::move(fiber)) {}

    ~FiberRequest() override {
        if (fiber_->complete()) {
            return;
        }
        // MPI requires non-blocking operations to complete before their
        // request is freed. Diagnose, then wait the fiber out: it references
        // the caller's buffers. On a failed rank the wait unwinds it instead.
        if (!rank_failed(fiber_->ctx)) {
            if (auto* counters = counters_of(fiber_->ctx)) {
                counters->engine_incomplete_destructions.fetch_add(1, std::memory_order_relaxed);
            }
            std::fprintf(
                stderr,
                "xmpi: request for non-blocking '%s' destroyed before completion; "
                "waiting for it to finish (complete requests with wait/test before "
                "freeing them)\n",
                fiber_->op);
        }
        Scheduler::await(*fiber_);
    }

    bool test(Status& status) override {
        if (!fiber_->complete()) {
            (void)poll();
        }
        if (!fiber_->complete()) {
            return false;
        }
        status = Status{UNDEFINED, UNDEFINED, fiber_->error, 0};
        return true;
    }

    void wait(Status& status) override {
        Scheduler::await(*fiber_);
        status = Status{UNDEFINED, UNDEFINED, fiber_->error, 0};
    }

private:
    std::shared_ptr<Fiber> fiber_;
};

} // namespace

void configure(Config) {}

bool poll() {
    return t_fiber_seam.owns_fibers && scheduler().resume_ready();
}

namespace detail {

Request* submit(char const* op, std::function<int()> body) {
    auto fiber = std::make_shared<Fiber>();
    fiber->body = std::move(body);
    fiber->ctx = xmpi::detail::current_context();
    fiber->op = op;
    fiber->started_s = wtime();
    auto request = std::make_unique<FiberRequest>(fiber);
    try {
        scheduler().start(fiber);
    } catch (std::bad_alloc const&) {
        // No stack could be mapped (address space or map count exhausted):
        // the operation fails at its completion instead of throwing through
        // the C API.
        fiber->body = nullptr;
        fiber->error = XMPI_ERR_INTERN;
        fiber->done.store(true, std::memory_order_release);
    }
    return request.release();
}

void unwind_fibers() {
    if (t_fiber_seam.owns_fibers) {
        scheduler().unwind_all();
    }
}

} // namespace detail
} // namespace xmpi::progress

namespace xmpi::detail {

bool park_fiber(FiberPark const& park) {
    return progress::scheduler().park(park);
}

bool fiber_can_park() {
    return progress::scheduler().can_park();
}

bool resume_fibers() {
    return progress::scheduler().resume_ready();
}

std::chrono::steady_clock::time_point fiber_deadline() {
    return progress::scheduler().earliest_deadline();
}

} // namespace xmpi::detail
