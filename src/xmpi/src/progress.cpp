/// @file progress.cpp
/// @brief The shared non-blocking progress engine (see progress.hpp).
#include "xmpi/progress.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xmpi/comm.hpp"
#include "xmpi/error.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/request.hpp"
#include "xmpi/world.hpp"

namespace xmpi::progress {
namespace {

/// @brief One resumable collective task. State transitions:
/// queued -> running -> done, or queued -> {cancelled, done-with-error}
/// (cancel / revocation / rank-death sweeps). Exactly one thread finishes a
/// task, and it writes `error` before the releasing state store, so a test()
/// that observes a terminal state through the acquire load reads a settled
/// error code.
struct Task {
    enum State : int { queued, running, done, cancelled };

    std::function<int()> body;    ///< collective algorithm; returns XMPI code
    xmpi::detail::RankContext ctx; ///< initiating rank (the task acts as it)
    Comm* comm = nullptr;         ///< communicator, for revocation sweeps
    char const* op = "";          ///< operation name for tracing spans
    double enqueued_s = 0.0;      ///< wtime() at submission (queue-wait spans)

    std::atomic<int> state{queued};
    int error = XMPI_SUCCESS;
};

using TaskPtr = std::shared_ptr<Task>;

bool is_terminal(int state) {
    return state == Task::done || state == Task::cancelled;
}

/// @brief Completes @c task (terminal state + error) and notifies the
/// initiating rank, whose Waiter its waiters park on.
void finish(Task& task, int error, int final_state) {
    task.error = error;
    task.state.store(final_state, std::memory_order_release);
    xmpi::detail::waiter_of(task.ctx).notify();
}

void bump_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
    auto current = slot.load(std::memory_order_relaxed);
    while (value > current
           && !slot.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
}

profile::RankCounters* counters_of(xmpi::detail::RankContext const& ctx) {
    return ctx.world == nullptr ? nullptr : &ctx.world->counters(ctx.world_rank);
}

class Engine {
public:
    ~Engine() { stop_workers(); }

    Request* submit(
        char const* op, Comm* comm, xmpi::detail::RankContext ctx,
        std::function<int()> body);
    void wait(TaskPtr const& task);
    bool test_assist(TaskPtr const& task);
    bool cancel(TaskPtr const& task);
    void on_request_destroyed(TaskPtr const& task);
    bool poll();

    void configure(Config config) {
        std::lock_guard config_lock(config_mutex_);
        stop_workers();
        std::lock_guard lock(mutex_);
        config_ = config;
    }

    Config current_config() {
        std::lock_guard lock(mutex_);
        return config_;
    }

    void shutdown() {
        std::lock_guard config_lock(config_mutex_);
        stop_workers();
    }

    void fail_queued_for_comm(Comm* comm, int error) {
        fail_queued_if([&](Task const& task) { return task.comm == comm; }, error);
    }

    void fail_queued_for_rank(World* world, int world_rank, int error) {
        fail_queued_if(
            [&](Task const& task) {
                return task.ctx.world == world && task.ctx.world_rank == world_rank;
            },
            error);
    }

    void abandon_world(World* world) {
        fail_queued_if(
            [&](Task const& task) { return task.ctx.world == world; }, XMPI_ERR_PROC_FAILED);
        std::unique_lock lock(mutex_);
        drained_cv_.wait(lock, [&] {
            return std::none_of(running_.begin(), running_.end(), [&](TaskPtr const& task) {
                return task->ctx.world == world;
            });
        });
    }

private:
    /// @brief Transitions @c task out of the queue for execution. Tasks whose
    /// communicator was revoked or whose initiating rank died are completed
    /// with the corresponding error instead of running. Returns true iff the
    /// caller must now run the task. Called with mutex_ held and @c task
    /// already removed from queue_.
    bool claim_locked(TaskPtr const& task) {
        if (task->comm != nullptr && task->comm->revoked()) {
            finish(*task, XMPI_ERR_REVOKED, Task::done);
            return false;
        }
        if (task->ctx.world != nullptr && task->ctx.world->is_failed(task->ctx.world_rank)) {
            finish(*task, XMPI_ERR_PROC_FAILED, Task::done);
            return false;
        }
        task->state.store(Task::running, std::memory_order_relaxed);
        running_.push_back(task);
        return true;
    }

    /// @brief Executes a claimed task on the calling thread under the
    /// initiator's rank context, records the tracing span, completes the
    /// task, and deregisters it from running_.
    void run_task(TaskPtr const& task) {
        auto& context = xmpi::detail::current_context();
        auto const saved = context;
        context = task->ctx;
        double const started_s = wtime();
        int error = XMPI_SUCCESS;
        try {
            error = task->body();
        } catch (RankKilled const&) {
            // A fault fired while the task acted for its initiator. The task
            // fails like the rank's own collectives do; the rank thread
            // itself keeps its own kill schedule (see DESIGN.md).
            error = XMPI_ERR_PROC_FAILED;
        } catch (...) {
            error = XMPI_ERR_INTERN;
        }
        double const finished_s = wtime();
        if (profile::tracing_enabled()) {
            profile::Span span;
            span.op = task->op;
            span.algorithm = profile::take_algorithm();
            span.world_rank = task->ctx.world_rank;
            span.start_s = started_s;
            span.duration_s = finished_s - started_s;
            span.queue_s = started_s - task->enqueued_s;
            profile::record_span(span);
        }
        context = saved;
        finish(*task, error, Task::done);
        {
            std::lock_guard lock(mutex_);
            std::erase(running_, task);
        }
        drained_cv_.notify_all();
    }

    /// @brief Claims the calling rank's oldest queued task and runs it on
    /// the calling thread. Only own tasks are eligible: running them blocks
    /// the caller on work its rank must complete anyway, and draining them
    /// in initiation order keeps the caller's collectives aligned with its
    /// peers (non-blocking collectives are initiated in the same order on
    /// all ranks). Stealing *another* rank's task would let the caller
    /// block inside a collective whose remaining contributions are still
    /// queued — with every thread wedged that way the queue deadlocks.
    /// @c ctx is the rank whose tasks are eligible (the caller's own, or the
    /// initiator a submit_as acts for). Returns true iff a task ran.
    bool help_own(xmpi::detail::RankContext const& ctx) {
        if (ctx.world == nullptr) {
            return false;
        }
        TaskPtr claimed;
        {
            std::lock_guard lock(mutex_);
            auto it = queue_.begin();
            while (it != queue_.end()) {
                if ((*it)->ctx.world != ctx.world || (*it)->ctx.world_rank != ctx.world_rank) {
                    ++it;
                    continue;
                }
                TaskPtr task = *it;
                it = queue_.erase(it);
                if (task->state.load(std::memory_order_relaxed) != Task::queued) {
                    continue; // cancelled concurrently; look for another own task
                }
                if (claim_locked(task)) {
                    claimed = std::move(task);
                }
                break;
            }
        }
        if (claimed == nullptr) {
            return false;
        }
        if (auto* counters = counters_of(ctx)) {
            counters->engine_caller_steals.fetch_add(1, std::memory_order_relaxed);
        }
        run_task(claimed);
        return true;
    }

    /// @brief Stall valve: a waiter observed no progress while queued tasks
    /// exist and no worker is idle — every executor is blocked inside a
    /// collective body whose remaining contributions are still queued.
    /// Grow the pool by one temporary worker so the queue keeps draining;
    /// escalation repeats while the stall persists, so in the worst case
    /// (adversarial completion-dependency patterns) the engine degenerates
    /// to one thread per blocked task — exactly the old thread-per-request
    /// cost, paid only when those threads are needed for correctness.
    void escalate() {
        std::lock_guard lock(mutex_);
        if (queue_.empty() || idle_workers_ > 0 || stopping_) {
            return;
        }
        if (auto* counters = counters_of(xmpi::detail::current_context())) {
            counters->engine_stall_escalations.fetch_add(1, std::memory_order_relaxed);
        }
        escalated_.emplace_back([this] { escalated_loop(); });
    }

    /// @brief Pops queued tasks until one is claimed (called with mutex_
    /// held); tasks a caller already stole are skipped. Returns nullptr once
    /// the queue is empty.
    TaskPtr pop_claimable_locked() {
        while (!queue_.empty()) {
            TaskPtr task = queue_.front();
            queue_.pop_front();
            if (task->state.load(std::memory_order_relaxed) == Task::queued
                && claim_locked(task)) {
                return task;
            }
        }
        return nullptr;
    }

    /// @brief Temporary worker: drains queued tasks and exits as soon as
    /// the queue is empty. The exited thread stays joinable in escalated_
    /// (a handle, not a live thread) until the next stop_workers() reaps it.
    void escalated_loop() {
        for (;;) {
            TaskPtr claimed;
            {
                std::lock_guard lock(mutex_);
                if (!stopping_) {
                    claimed = pop_claimable_locked();
                }
            }
            if (claimed == nullptr) {
                return;
            }
            run_task(claimed);
        }
    }

    /// @brief Claims @c task iff it is still queued (wait()'s own-task steal
    /// and test()'s saturation assist). Returns true iff it ran.
    bool help_task(TaskPtr const& task, bool only_if_saturated) {
        {
            std::lock_guard lock(mutex_);
            if (only_if_saturated && idle_workers_ > 0) {
                return false;
            }
            if (task->state.load(std::memory_order_relaxed) != Task::queued) {
                return false;
            }
            std::erase(queue_, task);
            if (!claim_locked(task)) {
                return true; // completed by the claim-time failure checks
            }
        }
        if (auto* counters = counters_of(xmpi::detail::current_context())) {
            counters->engine_caller_steals.fetch_add(1, std::memory_order_relaxed);
        }
        run_task(task);
        return true;
    }

    template <typename Predicate>
    void fail_queued_if(Predicate&& matches, int error) {
        std::vector<TaskPtr> failed;
        {
            std::lock_guard lock(mutex_);
            for (auto it = queue_.begin(); it != queue_.end();) {
                if ((*it)->state.load(std::memory_order_relaxed) == Task::queued
                    && matches(**it)) {
                    failed.push_back(*it);
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (auto& task: failed) {
            finish(*task, error, Task::done);
        }
    }

    /// @brief Lazily starts the worker pool (called with mutex_ held).
    void ensure_workers_locked() {
        if (!workers_.empty() || stopping_) {
            return;
        }
        unsigned const count = config_.threads != 0 ? config_.threads : default_thread_count();
        workers_.reserve(count);
        for (unsigned i = 0; i < count; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }

    void worker_loop() {
        for (;;) {
            TaskPtr claimed;
            {
                std::unique_lock lock(mutex_);
                ++idle_workers_;
                work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
                --idle_workers_;
                if (stopping_) {
                    return;
                }
                claimed = pop_claimable_locked();
            }
            if (claimed != nullptr) {
                run_task(claimed);
            }
        }
    }

    /// @brief Stops and joins the pool. Queued tasks stay queued (waiting
    /// callers still complete them); the pool restarts on the next submit.
    /// Callers must hold config_mutex_ (never mutex_ — joining needs it).
    void stop_workers() {
        std::vector<std::thread> workers;
        std::vector<std::thread> escalated;
        {
            std::lock_guard lock(mutex_);
            if (workers_.empty() && escalated_.empty()) {
                return;
            }
            stopping_ = true;
            workers.swap(workers_);
            escalated.swap(escalated_);
        }
        work_cv_.notify_all();
        for (auto& worker: workers) {
            worker.join();
        }
        for (auto& worker: escalated) {
            worker.join();
        }
        std::lock_guard lock(mutex_);
        stopping_ = false;
    }

    std::mutex mutex_;
    std::mutex config_mutex_; ///< serialises configure/shutdown (worker joins)
    std::condition_variable work_cv_;    ///< workers: queue non-empty / stopping
    std::condition_variable drained_cv_; ///< abandon_world: running set changed
    std::deque<TaskPtr> queue_;
    std::vector<TaskPtr> running_; ///< tasks currently executing anywhere
    std::vector<std::thread> workers_;
    std::vector<std::thread> escalated_; ///< stall-valve workers (see escalate())
    unsigned idle_workers_ = 0;
    bool stopping_ = false;
    Config config_{};
};

Engine& engine() {
    static Engine instance;
    return instance;
}

/// @brief Request handle backing an engine task. Completion polling is a
/// single acquire load; wait() blocks on the initiator's Waiter and supplies
/// caller-driven progress (see progress.hpp header).
class EngineRequest final : public Request {
public:
    explicit EngineRequest(TaskPtr task) : task_(std::move(task)) {}

    ~EngineRequest() override { engine().on_request_destroyed(task_); }

    bool test(Status& status) override {
        if (!is_terminal(task_->state.load(std::memory_order_acquire))) {
            // Saturated pool: a polling loop must still make progress, so
            // run the task on the caller when no worker will get to it.
            engine().test_assist(task_);
        }
        if (!is_terminal(task_->state.load(std::memory_order_acquire))) {
            return false;
        }
        status = Status{UNDEFINED, UNDEFINED, task_->error, 0};
        return true;
    }

    void wait(Status& status) override {
        engine().wait(task_);
        status = Status{UNDEFINED, UNDEFINED, task_->error, 0};
    }

    bool cancel() override { return engine().cancel(task_); }

private:
    TaskPtr task_;
};

Request* Engine::submit(
    char const* op, Comm* comm, xmpi::detail::RankContext ctx,
    std::function<int()> body) {
    auto task = std::make_shared<Task>();
    task->body = std::move(body);
    task->ctx = ctx;
    task->comm = comm;
    task->op = op;
    task->enqueued_s = wtime();

    auto* counters = counters_of(task->ctx);
    bool inline_fallback = false;
    // Backpressure: while the queue is full the initiator runs its own
    // queued tasks, oldest first, until a slot frees. Only with none of its
    // own queued does it run the new task inline (equivalent to the
    // blocking form). Either way the rank's collectives run in initiation
    // order: running the new task ahead of its own older queued ones would
    // block it on peers whose matching older tasks wait behind them.
    for (;;) {
        {
            std::lock_guard lock(mutex_);
            ensure_workers_locked();
            if (queue_.size() < config_.queue_capacity) {
                queue_.push_back(task);
                if (counters != nullptr) {
                    counters->engine_tasks.fetch_add(1, std::memory_order_relaxed);
                    bump_max(counters->engine_queue_depth_max, queue_.size());
                }
                break;
            }
            if (ctx.world == nullptr
                || std::none_of(queue_.begin(), queue_.end(), [&](TaskPtr const& queued) {
                       return queued->ctx.world == ctx.world
                              && queued->ctx.world_rank == ctx.world_rank
                              && queued->state.load(std::memory_order_relaxed) == Task::queued;
                   })) {
                inline_fallback = true;
                claim_locked(task); // claim-time failure checks still apply
                break;
            }
        }
        (void)help_own(ctx);
    }
    if (inline_fallback) {
        if (counters != nullptr) {
            counters->engine_inline_fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        if (task->state.load(std::memory_order_acquire) == Task::running) {
            run_task(task);
        }
    } else {
        work_cv_.notify_one();
    }
    return new EngineRequest(std::move(task));
}

void Engine::wait(TaskPtr const& task) {
    // Stall valve: this long without progress while our task runs elsewhere
    // opens escalate().
    constexpr auto kStall = std::chrono::milliseconds(10);
    auto const& caller = xmpi::detail::current_context();
    auto& waiter = xmpi::detail::waiter_of(task->ctx);
    auto const terminal = [&] { return is_terminal(task->state.load(std::memory_order_acquire)); };
    while (!terminal()) {
        if (task->state.load(std::memory_order_relaxed) == Task::queued
            && help_task(task, /*only_if_saturated=*/false)) {
            continue;
        }
        // Our task runs elsewhere: drain our own queued tasks first (their
        // peers may be waiting on exactly these).
        if (help_own(caller)) {
            continue;
        }
        // Keep the caller's transport rings draining while it blocks here:
        // a peer's collective task may be waiting on a rendezvous claim or a
        // batch that only this rank's mailbox can consume.
        bool drained = false;
        bool const done = waiter.wait_until(
            [&] {
                if (caller.world != nullptr && caller.world->mailbox(caller.world_rank).poll()) {
                    drained = true;
                }
                return terminal();
            },
            xmpi::detail::Waiter::Clock::now() + kStall);
        if (!done && !drained) {
            escalate();
        }
    }
}

bool Engine::test_assist(TaskPtr const& task) {
    return help_task(task, /*only_if_saturated=*/true);
}

bool Engine::cancel(TaskPtr const& task) {
    std::lock_guard lock(mutex_);
    if (task->state.load(std::memory_order_relaxed) != Task::queued) {
        return false;
    }
    std::erase(queue_, task);
    finish(*task, XMPI_SUCCESS, Task::cancelled);
    return true;
}

void Engine::on_request_destroyed(TaskPtr const& task) {
    if (is_terminal(task->state.load(std::memory_order_acquire))) {
        return;
    }
    // MPI requires non-blocking operations to be completed (or cancelled)
    // before their request is freed. The old thread-per-request design
    // silently joined here — a hidden blocking point. Diagnose, then still
    // do the safe thing: cancel if the task never started, otherwise block
    // until the in-flight execution finished (it references caller buffers).
    if (auto* counters = counters_of(task->ctx)) {
        counters->engine_incomplete_destructions.fetch_add(1, std::memory_order_relaxed);
    }
    std::fprintf(
        stderr,
        "xmpi: request for non-blocking '%s' destroyed before completion; "
        "%s (complete requests with wait/test before freeing them)\n",
        task->op,
        task->state.load(std::memory_order_acquire) == Task::queued
            ? "cancelling the queued task"
            : "blocking until the in-flight task finishes");
    if (cancel(task)) {
        return;
    }
    wait(task);
}

bool Engine::poll() {
    return help_own(xmpi::detail::current_context());
}

} // namespace

void configure(Config config) {
    engine().configure(config);
}

Config current_config() {
    return engine().current_config();
}

unsigned default_thread_count() {
    unsigned const hw = std::max(1u, std::thread::hardware_concurrency());
    return std::max(1u, std::min(4u, hw > 1 ? hw - 1 : 1u));
}

bool poll() {
    return engine().poll();
}

void shutdown() {
    engine().shutdown();
}

namespace detail {

Request* submit(char const* op, Comm* comm, std::function<int()> body) {
    return engine().submit(op, comm, xmpi::detail::current_context(), std::move(body));
}

Request* submit_as(
    char const* op, Comm* comm, xmpi::detail::RankContext ctx, std::function<int()> body) {
    return engine().submit(op, comm, ctx, std::move(body));
}

void fail_queued_for_comm(Comm* comm, int error) {
    engine().fail_queued_for_comm(comm, error);
}

void fail_queued_for_rank(World* world, int world_rank, int error) {
    engine().fail_queued_for_rank(world, world_rank, error);
}

void abandon_world(World* world) {
    engine().abandon_world(world);
}

} // namespace detail
} // namespace xmpi::progress
