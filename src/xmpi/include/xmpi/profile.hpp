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
#include <cstddef>
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

/// @brief The counter table: every per-rank counter, declared once.
///
/// Each entry is `X(head, name, doc)`. `head` is `alignas(kCounterCacheLine)`
/// on the first counter of a cache-line group and empty otherwise; `doc` is
/// the counter's one-line description. RankCounters, Snapshot, reset(), the
/// snapshot copy and Snapshot::operator+= are all expanded from this table,
/// so a new counter is one line here (plus its entry in docs/API.md, which CI
/// checks).
///
/// The hot transport counters are grouped by writer and each group is
/// aligned to its own cache line: the sender-side group is bumped by the
/// sending rank's thread on every publish, the consumer-side group by the
/// receiving rank's thread on every drain, so without the padding the two
/// would false-share one line and the ring fast path would ping-pong it
/// between cores.
#define XMPI_PROFILE_COUNTERS(X)                                                            \
    /* Sender-side hot counters (bumped on every send/publish) */                           \
    X(alignas(kCounterCacheLine), messages_sent, "messages injected by this rank")          \
    X(, bytes_sent, "payload bytes injected by this rank")                                  \
    X(, fastpath_sends, "contiguous sends on the ring fast path")                           \
    X(, ring_enqueues, "ring slots published")                                              \
    X(, coalesced_sends, "small sends appended to an open batch")                           \
    X(, ring_full_fallbacks, "sends that waited for ring space")                           \
    X(, pool_hits, "payload buffers reused from the pool")                                  \
    X(, pool_misses, "payload buffers heap-allocated")                                      \
    X(, reserved_payload_reuses, "persistent-send slot buffers recycled")                   \
    /* Consumer-side hot counters (bumped when this rank drains/claims) */                  \
    X(alignas(kCounterCacheLine), rendezvous_transfers, "descriptors claimed zero-copy")    \
    X(, bytes_zero_copied, "payload bytes moved without staging (both sides)")              \
    /* Non-blocking fibers (see progress.hpp); the inert ones always read 0 */              \
    X(alignas(kCounterCacheLine), engine_tasks, "fibers started")                           \
    X(, engine_inline_fallbacks, "inert: retired worker pool")                              \
    X(, engine_queue_depth_max, "most fibers the rank held at once")                        \
    X(, engine_caller_steals, "inert: retired worker pool")                                 \
    X(, engine_incomplete_destructions, "requests freed before completion")                 \
    X(, engine_stall_escalations, "inert: retired worker pool")                             \
    /* One-sided (RMA) counters (see win.hpp) */                                            \
    X(, rma_puts, "puts initiated (excl. PROC_NULL no-ops)")                                \
    X(, rma_gets, "gets initiated (excl. PROC_NULL no-ops)")                                \
    X(, rma_accumulates, "accumulates applied")                                             \
    X(, rma_atomics, "fetch_and_op + compare_and_swap applied")                             \
    X(, rma_bytes_zero_copied, "RMA bytes moved without staging")                           \
    X(, rma_epoch_waits, "fences + blocking lock acquisitions")                             \
    /* Scheduler counters (see apps/kasched; bumped by the app layer) */                    \
    X(, sched_steals_attempted, "remote steal probes issued")                               \
    X(, sched_steals_succeeded, "probes that claimed a task")                               \
    X(, sched_tasks_executed, "tasks this rank ran to completion")                          \
    X(, sched_requeue_after_failure, "tasks re-queued off a dead owner")                    \
    /* Elastic-world counters (see elastic.hpp) */                                          \
    X(, stale_epoch_drops, "messages dropped for a superseded epoch")                       \
    X(, epoch_transitions, "membership transitions this rank produced")

/// @brief Counters of one rank. Atomics allow cross-thread snapshots.
struct RankCounters {
    std::array<std::atomic<std::uint64_t>, num_calls> calls{};
#define XMPI_PROFILE_FIELD(head, name, doc) head std::atomic<std::uint64_t> name{0};
    XMPI_PROFILE_COUNTERS(XMPI_PROFILE_FIELD)
#undef XMPI_PROFILE_FIELD

    void reset() {
        for (auto& counter: calls) {
            counter.store(0, std::memory_order_relaxed);
        }
#define XMPI_PROFILE_RESET(head, name, doc) name.store(0, std::memory_order_relaxed);
        XMPI_PROFILE_COUNTERS(XMPI_PROFILE_RESET)
#undef XMPI_PROFILE_RESET
    }
};

// Each group head must open its own cache line (see the table).
static_assert(offsetof(RankCounters, messages_sent) % kCounterCacheLine == 0);
static_assert(offsetof(RankCounters, rendezvous_transfers) % kCounterCacheLine == 0);
static_assert(offsetof(RankCounters, engine_tasks) % kCounterCacheLine == 0);

/// @brief Plain (non-atomic) snapshot of one rank's counters.
struct Snapshot {
    std::array<std::uint64_t, num_calls> calls{};
#define XMPI_PROFILE_FIELD(head, name, doc) std::uint64_t name = 0;
    XMPI_PROFILE_COUNTERS(XMPI_PROFILE_FIELD)
#undef XMPI_PROFILE_FIELD

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
    /// @brief Adds @c other field by field (e.g. to total several ranks).
    /// High-water marks such as engine_queue_depth_max are summed too; take
    /// their maximum separately where that is what is meant.
    Snapshot& operator+=(Snapshot const& other) {
        for (std::size_t i = 0; i < num_calls; ++i) {
            calls[i] += other.calls[i];
        }
#define XMPI_PROFILE_ADD(head, name, doc) name += other.name;
        XMPI_PROFILE_COUNTERS(XMPI_PROFILE_ADD)
#undef XMPI_PROFILE_ADD
        return *this;
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
    /// Time the operation waited before it started; always 0 now that a
    /// non-blocking operation starts as a fiber at initiation. Kept in the
    /// span format for existing readers.
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

/// @brief The calling thread's pending notes (note_algorithm,
/// note_epoch_wait).
struct ThreadNotes {
    char const* algorithm = "";
    double epoch_wait_s = 0.0;
};
/// @brief Replaces the calling thread's notes with @c notes and returns the
/// previous ones. Fiber switches (progress.cpp) swap them, so a note stays
/// with the operation that made it.
ThreadNotes exchange_thread_notes(ThreadNotes notes);

} // namespace xmpi::profile
