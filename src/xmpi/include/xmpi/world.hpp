/// @file world.hpp
/// @brief The xmpi runtime: a "world" of ranks realised as threads.
///
/// A World plays the role of an MPI job: it owns the rank mailboxes, the
/// world communicator, context-id allocation, the network model, failure
/// state (for ULFM testing) and the profiling counters. `World::run(p, fn)`
/// spawns p threads, each of which becomes one rank; a thread-local rank
/// context makes XMPI_COMM_WORLD and the calling rank resolvable from
/// anywhere, so application code looks exactly like MPI code.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "xmpi/comm.hpp"
#include "xmpi/error.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/netmodel.hpp"
#include "xmpi/pool.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/waiter.hpp"

namespace xmpi {

namespace chaos {
class Engine;
}

namespace detail {
struct ElasticState;
}

class World {
public:
    /// @brief Creates a world of @c size ranks. Threads are attached via
    /// attach_current_thread(); prefer the run() convenience wrapper.
    ///
    /// @param capacity When > 0, the world is *elastic*: up to @c capacity
    /// ranks may ever exist in it, and new ranks can join a running world
    /// via open_session() (and leave via leave_session()) — see elastic.hpp
    /// for the membership-epoch state machine. 0 (the default) keeps the
    /// classic fixed-membership world with zero elastic overhead.
    explicit World(int size, NetworkModel model = {}, int capacity = 0);
    ~World();

    World(World const&) = delete;
    World& operator=(World const&) = delete;

    /// @brief Spawns @c size rank threads, runs @c rank_main on each, joins.
    /// If a rank throws, the remaining ranks observe it as a process failure
    /// (preventing deadlock) and the first exception is rethrown after join.
    static void run(int size, std::function<void()> rank_main, NetworkModel model = {});

    /// @brief As run(), but the main function receives the rank id.
    static void run_ranked(int size, std::function<void(int)> rank_main, NetworkModel model = {});

    [[nodiscard]] int size() const { return size_; }
    [[nodiscard]] Comm* world_comm() { return world_comm_; }
    [[nodiscard]] NetworkModel const& network_model() const { return model_; }
    void set_network_model(NetworkModel model) { model_ = model; }

    [[nodiscard]] detail::Mailbox& mailbox(int world_rank) { return *mailboxes_[world_rank]; }
    /// @brief The Waiter every blocking wait of @c world_rank parks on.
    [[nodiscard]] detail::Waiter& waiter(int world_rank) {
        return waiters_[static_cast<std::size_t>(world_rank)];
    }
    [[nodiscard]] profile::RankCounters& counters(int world_rank) {
        return *counters_[world_rank];
    }
    /// @brief Shared payload buffer pool of this world's transport.
    [[nodiscard]] detail::PayloadPool& payload_pool() { return payload_pool_; }
    /// @brief The lock-free per-(src,dst) transport rings of this world.
    [[nodiscard]] detail::RingRegistry& rings() { return *rings_; }

    /// @brief Allocates a fresh context id (unique within this world).
    int allocate_context() { return next_context_.fetch_add(1, std::memory_order_relaxed); }

    /// @name Failure state (ULFM)
    /// @{
    [[nodiscard]] bool is_failed(int world_rank) const {
        return failed_flags_[static_cast<std::size_t>(world_rank)].load(std::memory_order_acquire);
    }
    [[nodiscard]] bool any_failed() const {
        return num_failed_.load(std::memory_order_acquire) > 0;
    }
    /// @brief Marks the calling rank failed, wakes every blocked thread, and
    /// unwinds the rank's stack via RankKilled.
    [[noreturn]] void kill_current_rank();
    /// @brief Marks a rank failed without unwinding (used when a rank thread
    /// exits via an exception).
    void mark_failed(int world_rank);
    /// @brief Notifies the Waiter of every rank slot (failure, revocation,
    /// and membership events can satisfy any rank's wait).
    void wake_all();
    /// @}

    /// @name Fault injection (chaos.hpp)
    /// @{
    /// @brief The armed fault-injection engine, or nullptr. Checked on every
    /// profiled call; a single acquire load when disarmed.
    [[nodiscard]] chaos::Engine* chaos_engine() const {
        return chaos_engine_.load(std::memory_order_acquire);
    }
    /// @brief Arms @c engine for this world (replacing any armed one).
    /// Superseded engines stay alive until the world is destroyed, so rank
    /// threads may keep reading a stale engine pointer race-free.
    void install_chaos(std::unique_ptr<chaos::Engine> engine);
    /// @brief Disarms fault injection.
    void clear_chaos() { chaos_engine_.store(nullptr, std::memory_order_release); }
    /// @}

    /// @name Thread attachment
    /// @{
    void attach_current_thread(int world_rank);
    void detach_current_thread();
    /// @}

    /// @name Elastic membership (sessions-style grow/shrink, elastic.hpp)
    /// @{
    [[nodiscard]] bool elastic_enabled() const { return elastic_ != nullptr; }
    /// @brief Upper bound on the number of ranks this world can ever hold
    /// (== size() for non-elastic worlds). Rank slots are never reused.
    [[nodiscard]] int capacity() const { return capacity_; }
    /// @brief Number of rank slots ever created (initial + joined); valid
    /// bound for per-rank iteration (counters, mailboxes).
    [[nodiscard]] int rank_slots() const { return rank_slots_.load(std::memory_order_acquire); }
    /// @brief The current membership epoch (0 until the first transition;
    /// constant 0 in non-elastic worlds). One relaxed atomic load.
    [[nodiscard]] std::uint64_t membership_epoch() const {
        return membership_epoch_.load(std::memory_order_acquire);
    }
    /// @brief Attaches the calling (unattached) thread as a *new* rank of a
    /// running elastic world and blocks until a membership transition admits
    /// it. Returns the new world rank. Throws UsageError when the world is
    /// not elastic or its capacity is exhausted.
    int open_session();
    /// @brief Retires the calling rank: announces the leave, participates in
    /// the membership transition that excludes it, and detaches the thread.
    void leave_session();
    /// @brief Membership-epoch rendezvous: returns a handle to the
    /// current-epoch communicator, first running (or joining) a transition
    /// if joins, leaves, failures, or a revocation are pending. The caller
    /// releases the handle (XMPI_Comm_free); at epoch 0 it is the world
    /// communicator, which the World owns and XMPI_Comm_free leaves alone,
    /// so that handle comes unretained.
    [[nodiscard]] Comm* epoch_sync();
    /// @brief True iff a membership transition has been requested (join,
    /// leave, or failure) that epoch_sync has not yet resolved. Cheap
    /// (atomic hint); epoch_sync recomputes the truth.
    [[nodiscard]] bool membership_pending() const;
    /// @brief Cause of the most recent transition ("grow", "shrink",
    /// "failure", a "+"-combination, or "revoked"); "" before the first.
    [[nodiscard]] char const* last_transition_cause() const;
    /// @brief Convenience wrapper running @c session_main as a dynamically
    /// joined rank on the calling thread: open_session → session_main(rank)
    /// → leave_session, absorbing an injected failure (RankKilled) the way
    /// run_ranked does for static ranks.
    void run_session(std::function<void(int)> session_main);
    /// @brief True iff messages carrying @c context belong to a superseded
    /// membership epoch and must be dropped at delivery. Only the per-epoch
    /// elastic communicators register their contexts, so everything else
    /// (derived comms, non-elastic worlds) is never affected.
    [[nodiscard]] bool context_is_stale(int context) const;
    /// @}

private:
    int size_;
    int capacity_;
    NetworkModel model_;
    detail::PayloadPool payload_pool_; ///< must outlive the rings + mailboxes
    std::unique_ptr<detail::Waiter[]> waiters_; ///< one per slot, sized to capacity
    std::unique_ptr<detail::RingRegistry> rings_; ///< destroyed after mailboxes
    std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
    std::vector<std::unique_ptr<profile::RankCounters>> counters_;
    std::unique_ptr<std::atomic<bool>[]> failed_flags_;
    std::atomic<int> num_failed_{0};
    std::atomic<int> next_context_{0};
    Comm* world_comm_ = nullptr;
    std::atomic<chaos::Engine*> chaos_engine_{nullptr};
    std::vector<std::unique_ptr<chaos::Engine>> chaos_engines_; ///< current + superseded
    std::mutex chaos_mutex_;

    /// @name Elastic membership state (null for non-elastic worlds)
    /// @{
    std::unique_ptr<detail::ElasticState> elastic_;
    std::atomic<int> rank_slots_;
    std::atomic<std::uint64_t> membership_epoch_{0};
    std::atomic<bool> transition_pending_{false};
    /// Context id → birth epoch of the epoch-gated communicators; consulted
    /// (shared-locked) per delivered message, but only in elastic worlds.
    std::unordered_map<int, std::uint64_t> context_epochs_;
    mutable std::shared_mutex context_epoch_mutex_;
    /// @}

    void register_context_epoch(int context, std::uint64_t epoch);
    /// @name Membership-transition internals (elastic.cpp; callers hold the
    /// elastic mutex)
    /// @{
    void create_rank_slot_locked(int slot);
    [[nodiscard]] bool needs_transition_locked() const;
    [[nodiscard]] bool round_complete_locked() const;
    /// @brief Records @c slot's arrival at the open transition round (once).
    void arrive_locked(int slot);
    void request_transition_locked();
    void perform_transition_locked(int producer);
    /// @}
};

namespace detail {

/// @brief Thread-local binding of the current thread to (world, rank).
struct RankContext {
    World* world = nullptr;
    int world_rank = UNDEFINED;
};

/// @brief The calling thread's rank context; world == nullptr outside run().
RankContext& current_context();

/// @brief The Waiter that events of @c ctx's rank notify. Threads outside a
/// world share one process-wide Waiter.
Waiter& waiter_of(RankContext const& ctx);

/// @brief The calling thread's world; throws UsageError if not attached.
World& current_world();

/// @brief The calling thread's world rank; throws UsageError if not attached.
int current_world_rank();

/// @brief The world communicator handle of the calling thread's world.
Comm* current_world_comm();

} // namespace detail

/// @brief ULFM test hook: the calling rank fails "hard" — every operation
/// involving it will report XMPI_ERR_PROC_FAILED from now on.
[[noreturn]] void inject_failure();

/// @brief Wall-clock seconds from a monotonic clock (XMPI_Wtime).
double wtime();

} // namespace xmpi

/// @brief The world communicator of the calling rank's world, resolved via
/// thread-local context so code reads exactly like MPI code.
#define XMPI_COMM_WORLD (::xmpi::detail::current_world_comm())
