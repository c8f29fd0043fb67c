/// @file profile.hpp
/// @brief PMPI-style call and traffic counters.
///
/// Every XMPI entry point increments a per-rank counter, and the transport
/// layer counts messages and payload bytes. The paper (Section III-H) uses
/// MPI's profiling interface to assert that the bindings issue *only* the
/// expected MPI calls when computing default parameters; our tests do the
/// same through this module. Benchmarks additionally use the message counters
/// to verify communication-volume claims (e.g. grid all-to-all sends
/// O(sqrt(p)) messages per rank) independent of timing noise.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace xmpi::profile {

/// @brief Identifiers for the profiled XMPI entry points.
enum class Call : int {
    send,
    ssend,
    isend,
    issend,
    recv,
    irecv,
    sendrecv,
    probe,
    iprobe,
    barrier,
    ibarrier,
    bcast,
    ibcast,
    iallreduce,
    ialltoallv,
    gather,
    gatherv,
    scatter,
    scatterv,
    allgather,
    allgatherv,
    alltoall,
    alltoallv,
    alltoallw,
    reduce,
    allreduce,
    reduce_scatter_block,
    scan,
    exscan,
    neighbor_alltoall,
    neighbor_alltoallv,
    dist_graph_create_adjacent,
    comm_dup,
    comm_split,
    comm_create,
    comm_shrink,
    comm_agree,
    win_create,
    win_allocate,
    win_free,
    put,
    get,
    accumulate,
    fetch_and_op,
    compare_and_swap,
    win_fence,
    win_lock,
    win_unlock,
    send_init,
    recv_init,
    bcast_init,
    allreduce_init,
    alltoall_init,
    barrier_init,
    start,
    psend_init,
    precv_init,
    pready,
    parrived,
    session_open,
    session_leave,
    epoch_sync,
    count_ ///< number of entries; keep last
};

inline constexpr std::size_t num_calls = static_cast<std::size_t>(Call::count_);

/// @brief Cache-line size assumed for counter padding (std::hardware_
/// destructive_interference_size is deliberately avoided: it is ABI-fragile
/// and gcc warns on it).
inline constexpr std::size_t kCounterCacheLine = 64;

/// @brief Counters of one rank. Atomics allow cross-thread snapshots.
///
/// The hot transport counters are grouped by writer and each group is
/// aligned to its own cache line: a rank's counters are bumped per message
/// by its own thread *and* by progress-engine workers acting for it, so
/// without the padding the sender-side group (bumped on every publish) and
/// the consumer-side group (bumped on every drain) would false-share one
/// line and the ring fast path would ping-pong it between cores.
struct RankCounters {
    std::array<std::atomic<std::uint64_t>, num_calls> calls{};
    /// @name Sender-side hot counters (bumped on every send/publish)
    /// @{
    alignas(kCounterCacheLine) std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> fastpath_sends{0};  ///< contiguous sends on the ring fast path
    std::atomic<std::uint64_t> ring_enqueues{0};   ///< ring slots published
    std::atomic<std::uint64_t> coalesced_sends{0}; ///< small sends appended to an open batch
    std::atomic<std::uint64_t> ring_full_fallbacks{0}; ///< locked bypass deliveries (ring full)
    std::atomic<std::uint64_t> pool_hits{0};           ///< payload buffers reused from the pool
    std::atomic<std::uint64_t> pool_misses{0};         ///< payload buffers heap-allocated
    std::atomic<std::uint64_t> reserved_payload_reuses{0}; ///< persistent-send slot buffers recycled
    /// @}
    /// @name Consumer-side hot counters (bumped when this rank drains/claims)
    /// @{
    alignas(kCounterCacheLine) std::atomic<std::uint64_t> rendezvous_transfers{0}; ///< descriptors claimed zero-copy
    std::atomic<std::uint64_t> bytes_zero_copied{0}; ///< payload bytes moved without staging (both sides)
    /// @}
    /// @name Progress-engine counters (see progress.hpp)
    /// @{
    alignas(kCounterCacheLine)
    std::atomic<std::uint64_t> engine_tasks{0};            ///< tasks enqueued on the engine
    std::atomic<std::uint64_t> engine_inline_fallbacks{0}; ///< full queue: ran inline at initiation
    std::atomic<std::uint64_t> engine_queue_depth_max{0};  ///< deepest queue observed at enqueue
    std::atomic<std::uint64_t> engine_caller_steals{0};    ///< tasks run by waiting/polling callers
    std::atomic<std::uint64_t> engine_incomplete_destructions{0}; ///< requests freed before completion
    std::atomic<std::uint64_t> engine_stall_escalations{0}; ///< temporary workers grown by the stall valve
    /// @}
    /// @name One-sided (RMA) counters (see win.hpp)
    /// @{
    std::atomic<std::uint64_t> rma_puts{0};         ///< puts initiated (excl. PROC_NULL no-ops)
    std::atomic<std::uint64_t> rma_gets{0};         ///< gets initiated (excl. PROC_NULL no-ops)
    std::atomic<std::uint64_t> rma_accumulates{0};  ///< accumulates applied
    std::atomic<std::uint64_t> rma_atomics{0};      ///< fetch_and_op + compare_and_swap applied
    std::atomic<std::uint64_t> rma_bytes_zero_copied{0}; ///< RMA bytes moved without staging
    std::atomic<std::uint64_t> rma_epoch_waits{0};  ///< fences + blocking lock acquisitions
    /// @}
    /// @name Scheduler counters (see apps/kasched; bumped by the app layer)
    /// @{
    std::atomic<std::uint64_t> sched_steals_attempted{0}; ///< remote steal probes issued
    std::atomic<std::uint64_t> sched_steals_succeeded{0}; ///< probes that claimed a task
    std::atomic<std::uint64_t> sched_tasks_executed{0};   ///< tasks this rank ran to completion
    std::atomic<std::uint64_t> sched_requeue_after_failure{0}; ///< tasks re-queued off a dead owner
    /// @}
    /// @name Elastic-world counters (see elastic.hpp)
    /// @{
    std::atomic<std::uint64_t> stale_epoch_drops{0}; ///< messages dropped for a superseded epoch
    std::atomic<std::uint64_t> epoch_transitions{0}; ///< membership transitions this rank produced
    /// @}

    void reset() {
        for (auto& counter: calls) {
            counter.store(0, std::memory_order_relaxed);
        }
        messages_sent.store(0, std::memory_order_relaxed);
        bytes_sent.store(0, std::memory_order_relaxed);
        fastpath_sends.store(0, std::memory_order_relaxed);
        ring_enqueues.store(0, std::memory_order_relaxed);
        coalesced_sends.store(0, std::memory_order_relaxed);
        ring_full_fallbacks.store(0, std::memory_order_relaxed);
        rendezvous_transfers.store(0, std::memory_order_relaxed);
        bytes_zero_copied.store(0, std::memory_order_relaxed);
        pool_hits.store(0, std::memory_order_relaxed);
        pool_misses.store(0, std::memory_order_relaxed);
        reserved_payload_reuses.store(0, std::memory_order_relaxed);
        engine_tasks.store(0, std::memory_order_relaxed);
        engine_inline_fallbacks.store(0, std::memory_order_relaxed);
        engine_queue_depth_max.store(0, std::memory_order_relaxed);
        engine_caller_steals.store(0, std::memory_order_relaxed);
        engine_incomplete_destructions.store(0, std::memory_order_relaxed);
        engine_stall_escalations.store(0, std::memory_order_relaxed);
        rma_puts.store(0, std::memory_order_relaxed);
        rma_gets.store(0, std::memory_order_relaxed);
        rma_accumulates.store(0, std::memory_order_relaxed);
        rma_atomics.store(0, std::memory_order_relaxed);
        rma_bytes_zero_copied.store(0, std::memory_order_relaxed);
        rma_epoch_waits.store(0, std::memory_order_relaxed);
        sched_steals_attempted.store(0, std::memory_order_relaxed);
        sched_steals_succeeded.store(0, std::memory_order_relaxed);
        sched_tasks_executed.store(0, std::memory_order_relaxed);
        sched_requeue_after_failure.store(0, std::memory_order_relaxed);
        stale_epoch_drops.store(0, std::memory_order_relaxed);
        epoch_transitions.store(0, std::memory_order_relaxed);
    }
};

/// @brief Plain (non-atomic) snapshot of one rank's counters.
struct Snapshot {
    std::array<std::uint64_t, num_calls> calls{};
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t fastpath_sends = 0;
    std::uint64_t ring_enqueues = 0;
    std::uint64_t coalesced_sends = 0;
    std::uint64_t ring_full_fallbacks = 0;
    std::uint64_t rendezvous_transfers = 0;
    std::uint64_t bytes_zero_copied = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t reserved_payload_reuses = 0;
    std::uint64_t engine_tasks = 0;
    std::uint64_t engine_inline_fallbacks = 0;
    std::uint64_t engine_queue_depth_max = 0;
    std::uint64_t engine_caller_steals = 0;
    std::uint64_t engine_incomplete_destructions = 0;
    std::uint64_t engine_stall_escalations = 0;
    std::uint64_t rma_puts = 0;
    std::uint64_t rma_gets = 0;
    std::uint64_t rma_accumulates = 0;
    std::uint64_t rma_atomics = 0;
    std::uint64_t rma_bytes_zero_copied = 0;
    std::uint64_t rma_epoch_waits = 0;
    std::uint64_t sched_steals_attempted = 0;
    std::uint64_t sched_steals_succeeded = 0;
    std::uint64_t sched_tasks_executed = 0;
    std::uint64_t sched_requeue_after_failure = 0;
    std::uint64_t stale_epoch_drops = 0;
    std::uint64_t epoch_transitions = 0;

    [[nodiscard]] std::uint64_t operator[](Call call) const {
        return calls[static_cast<std::size_t>(call)];
    }
    /// @brief Sum over all call counters.
    [[nodiscard]] std::uint64_t total_calls() const {
        std::uint64_t sum = 0;
        for (auto value: calls) {
            sum += value;
        }
        return sum;
    }
};

/// @name Current-world convenience accessors (see World for the storage)
/// @{
/// @brief Live counters of the calling rank in the current world. The
/// scheduler (apps/kasched) bumps its sched_* counters through this.
RankCounters& my_counters();
/// @brief Snapshot of the calling rank's counters in the current world.
Snapshot my_snapshot();
/// @brief Snapshot of a given world rank's counters in the current world.
Snapshot snapshot_of(int world_rank);
/// @brief Resets the calling rank's counters.
void reset_mine();
/// @brief Resets all ranks' counters in the current world (not synchronised;
/// call from one rank while others are quiescent, e.g. around a barrier).
void reset_all();
/// @}

// ---------------------------------------------------------------------------
// Tracing spans (the kamping call-plan tracing seam ends here)
// ---------------------------------------------------------------------------

/// @brief One traced binding-level operation. Produced by the kamping call
/// plan (kamping/pipeline.hpp) when tracing is enabled; records what the
/// PMPI-style counters above cannot: which binding stage the time went to.
///
/// The `op`/`algorithm` fields are pointers to string literals with static
/// storage duration — spans never own memory for them.
struct Span {
    char const* op = "";        ///< binding operation ("allgatherv", "isend", ...)
    char const* algorithm = ""; ///< xmpi collective algorithm chosen ("" if none noted)
    int world_rank = -1;        ///< recording rank (-1 outside a world)
    double start_s = 0.0;       ///< XMPI_Wtime() at operation start
    double duration_s = 0.0;    ///< wall time inside the wrapper, seconds
    std::uint64_t bytes_in = 0; ///< payload bytes entering the op (send side)
    std::uint64_t bytes_out = 0; ///< payload bytes leaving the op (recv side)
    bool count_exchange = false; ///< a count/size exchange was instantiated
    /// Time the operation sat in the progress-engine queue before a worker
    /// (or a stealing caller) started it; 0 for operations that never went
    /// through the engine (blocking collectives, p2p).
    double queue_s = 0.0;
    /// Time spent blocked in RMA epoch synchronization (the fence barrier,
    /// or waiting to acquire a passive-target lock); 0 for non-RMA ops.
    double epoch_wait_s = 0.0;
    std::uint64_t bytes_put = 0; ///< RMA payload bytes written to targets
    std::uint64_t bytes_got = 0; ///< RMA payload bytes read from targets
    /// Completed start()s of a persistent plan; 0 for one-shot operations.
    /// Plan-summary spans amortize duration_s over this many restarts.
    std::uint64_t restarts = 0;
    /// Membership epoch of the recording rank's world at record time (always
    /// 0 in non-elastic worlds). Stamped by record_span so every traced op
    /// is attributable to the membership it ran under; epoch-transition
    /// spans (op "epoch_transition") carry the transition cause in
    /// `algorithm` ("grow", "shrink", "failure", or a "+"-combination).
    std::uint64_t epoch = 0;
};

/// @brief True iff span recording is globally enabled. A single relaxed
/// atomic load — this is the entire cost of the tracing seam when disabled.
bool tracing_enabled();
/// @brief Globally enables/disables span recording (process-wide; safe to
/// toggle concurrently with recording ranks).
void set_tracing_enabled(bool enabled);

/// @brief Appends a span to the process-wide span log (thread-safe). The
/// world rank is filled in from the calling thread's rank context when
/// attached.
void record_span(Span span);
/// @brief Drains the span log: returns all recorded spans and clears it.
std::vector<Span> take_spans();
/// @brief Clears the span log without returning it.
void clear_spans();
/// @brief JSON dump hook: the current span log as a JSON array of objects
/// (op, algorithm, rank, start_s, duration_s, bytes_in, bytes_out,
/// count_exchange, queue_s, epoch_wait_s, bytes_put, bytes_got, restarts,
/// epoch). Does not clear the log.
std::string spans_json();

/// @brief Called by the xmpi collective implementations to record which
/// algorithm a call selected ("bruck", "recursive_doubling", ...). Stored in
/// a thread-local slot (each rank is a thread) and picked up by the binding
/// layer's dispatch stage; a no-op unless tracing is enabled.
void note_algorithm(char const* name);
/// @brief Returns and clears the calling thread's algorithm note ("" if
/// nothing was noted since the last take).
char const* take_algorithm();

/// @brief Called by the RMA synchronization primitives (win_fence, win_lock)
/// to accumulate the time the calling rank spent blocked waiting for its
/// epoch. Thread-local like note_algorithm; a no-op unless tracing is
/// enabled. Picked up by the binding layer's call plan into Span.epoch_wait_s.
void note_epoch_wait(double seconds);
/// @brief Returns and clears the calling thread's accumulated epoch wait.
double take_epoch_wait();

} // namespace xmpi::profile
