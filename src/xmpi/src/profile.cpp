#include "xmpi/profile.hpp"

#include <mutex>
#include <utility>

#include "xmpi/world.hpp"

namespace xmpi::profile {
namespace {

Snapshot snapshot_counters(RankCounters const& counters) {
    Snapshot snapshot;
    for (std::size_t i = 0; i < num_calls; ++i) {
        snapshot.calls[i] = counters.calls[i].load(std::memory_order_relaxed);
    }
#define XMPI_PROFILE_LOAD(head, name, doc) \
    snapshot.name = counters.name.load(std::memory_order_relaxed);
    XMPI_PROFILE_COUNTERS(XMPI_PROFILE_LOAD)
#undef XMPI_PROFILE_LOAD
    return snapshot;
}

} // namespace

RankCounters& my_counters() {
    auto& world = detail::current_world();
    return world.counters(detail::current_world_rank());
}

Snapshot my_snapshot() {
    auto& world = detail::current_world();
    return snapshot_counters(world.counters(detail::current_world_rank()));
}

Snapshot snapshot_of(int world_rank) {
    auto& world = detail::current_world();
    if (world_rank < 0 || world_rank >= world.rank_slots()) {
        throw UsageError("profile::snapshot_of: world rank out of range");
    }
    return snapshot_counters(world.counters(world_rank));
}

void reset_mine() {
    auto& world = detail::current_world();
    world.counters(detail::current_world_rank()).reset();
}

void reset_all() {
    auto& world = detail::current_world();
    for (int rank = 0; rank < world.rank_slots(); ++rank) {
        world.counters(rank).reset();
    }
}

// ---------------------------------------------------------------------------
// Tracing spans
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing_enabled{false};

/// Span log shared by all rank threads; only touched when tracing is on, so
/// the mutex never appears on the traced-off hot path.
std::mutex g_span_mutex;
std::vector<Span> g_spans;

/// Per-thread (= per-rank) note of the last collective algorithm selected.
thread_local char const* t_algorithm = "";

/// Per-thread accumulated RMA epoch wait since the last take (seconds).
thread_local double t_epoch_wait_s = 0.0;

} // namespace

bool tracing_enabled() {
    return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
    g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void record_span(Span span) {
    auto const& context = detail::current_context();
    if (span.world_rank < 0 && context.world != nullptr) {
        span.world_rank = context.world_rank;
    }
    // Every span carries the membership epoch it ran under; one relaxed
    // atomic read, and constant 0 in non-elastic worlds.
    if (span.epoch == 0 && context.world != nullptr) {
        span.epoch = context.world->membership_epoch();
    }
    std::lock_guard lock(g_span_mutex);
    g_spans.push_back(span);
}

std::vector<Span> take_spans() {
    std::lock_guard lock(g_span_mutex);
    return std::exchange(g_spans, {});
}

void clear_spans() {
    std::lock_guard lock(g_span_mutex);
    g_spans.clear();
}

std::string spans_json() {
    std::vector<Span> spans;
    {
        std::lock_guard lock(g_span_mutex);
        spans = g_spans;
    }
    std::string json = "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Span const& span = spans[i];
        json += "  {\"op\": \"";
        json += span.op;
        json += "\", \"algorithm\": \"";
        json += span.algorithm;
        json += "\", \"rank\": " + std::to_string(span.world_rank);
        json += ", \"start_s\": " + std::to_string(span.start_s);
        json += ", \"duration_s\": " + std::to_string(span.duration_s);
        json += ", \"bytes_in\": " + std::to_string(span.bytes_in);
        json += ", \"bytes_out\": " + std::to_string(span.bytes_out);
        json += ", \"count_exchange\": ";
        json += span.count_exchange ? "true" : "false";
        json += ", \"queue_s\": " + std::to_string(span.queue_s);
        json += ", \"epoch_wait_s\": " + std::to_string(span.epoch_wait_s);
        json += ", \"bytes_put\": " + std::to_string(span.bytes_put);
        json += ", \"bytes_got\": " + std::to_string(span.bytes_got);
        json += ", \"restarts\": " + std::to_string(span.restarts);
        json += ", \"epoch\": " + std::to_string(span.epoch);
        json += i + 1 < spans.size() ? "},\n" : "}\n";
    }
    json += "]\n";
    return json;
}

void note_algorithm(char const* name) {
    if (tracing_enabled()) {
        t_algorithm = name;
    }
}

char const* take_algorithm() {
    return std::exchange(t_algorithm, "");
}

void note_epoch_wait(double seconds) {
    if (tracing_enabled()) {
        t_epoch_wait_s += seconds;
    }
}

double take_epoch_wait() {
    return std::exchange(t_epoch_wait_s, 0.0);
}

ThreadNotes exchange_thread_notes(ThreadNotes notes) {
    return ThreadNotes{
        std::exchange(t_algorithm, notes.algorithm),
        std::exchange(t_epoch_wait_s, notes.epoch_wait_s)};
}

} // namespace xmpi::profile
