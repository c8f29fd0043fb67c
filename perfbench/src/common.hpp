/// @file common.hpp
/// @brief Shared pieces of the repository benchmark: options, clocks, the
/// seeded generator every rank uses to derive identical schedules, sample
/// statistics, per-rank profile-counter deltas, the benchmark's own spans,
/// and the report every workload fills.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "xmpi/profile.hpp"
#include "xmpi/xmpi.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end ones
    bool tiny = false;      ///< fixed tiny iteration counts, no time budget (self-test)
    std::string spans_out;  ///< file the benchmark's own spans are written to ("" = none)
};

/// @brief Monotonic wall clock, seconds.
inline double wall_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// @brief CPU time consumed by the calling thread, seconds.
double thread_cpu_s();

/// @brief Peak resident set size of the process, MiB.
double peak_rss_mb();

/// @brief Records the CPUs the process may run on; call once from main
/// before any rank thread exists.
void init_cpu_list();
/// @brief Binds the calling thread to the @c index-th allowed CPU (modulo
/// their count). Rank threads are bound one per CPU so that two spinning
/// ranks never time-slice one core; unbound runs of the 2-rank ping-pong
/// were bimodal (1.3 us or 37 us small-message latency from run to run).
void pin_current_thread(int index);

/// @brief splitmix64: cheap, and identical on every rank for one seed, so
/// ranks derive the same size schedule without communicating it.
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [lo, hi].
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }
};

/// @brief Word @c i of the seeded payload pattern of stream @c key.
inline std::uint64_t pattern_word(std::uint64_t key, std::size_t i) {
    return Rng(key * 0x100000001B3ull + i).next();
}

/// @name Sample statistics (nearest-rank percentiles; empty input gives 0)
/// @{
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> const& values) { return percentile(values, 0.5); }
double mean(std::vector<double> const& values);
/// @}

/// @brief numerator / denominator, or 0 when the denominator is 0.
inline double ratio(double numerator, double denominator) {
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// @brief Timing samples in bounded memory, so that the benchmark's own
/// storage does not grow with the speed of the system (peak_rss_mb is an
/// end-to-end metric). Once kCap samples are held, every other one is
/// dropped and only every 2nd (then 4th, ...) later sample is kept: a long
/// run keeps an evenly spaced subsample.
class Samples {
public:
    static constexpr std::size_t kCap = std::size_t{1} << 16;

    void add(double value) {
        if (seen_++ % stride_ != 0) {
            return;
        }
        kept_.push_back(value);
        if (kept_.size() == kCap) {
            for (std::size_t i = 0; i < kCap / 2; ++i) {
                kept_[i] = kept_[2 * i];
            }
            kept_.resize(kCap / 2);
            stride_ *= 2;
        }
    }
    [[nodiscard]] std::vector<double> const& kept() const { return kept_; }
    /// @brief Samples offered, kept or not.
    [[nodiscard]] std::size_t count() const { return seen_; }

private:
    std::vector<double> kept_;
    std::size_t seen_ = 0;
    std::size_t stride_ = 1;
};

inline double percentile(Samples const& samples, double q) { return percentile(samples.kept(), q); }
inline double median(Samples const& samples) { return percentile(samples.kept(), 0.5); }

/// @brief The profile counters the benchmark derives its ratios from.
struct Counters {
    enum Field : std::size_t {
        messages,
        fastpath,
        ring_enqueues,
        coalesced,
        ring_full,
        rendezvous,
        pool_misses,
        engine_tasks,
        engine_inline,
        engine_steals,
        rma_atomics,
        rma_epoch_waits,
        steals_attempted,
        steals_succeeded,
        tasks_executed,
        kNumFields
    };
    std::array<std::uint64_t, kNumFields> v{};

    /// @brief Snapshot of one world rank of the calling thread's world.
    static Counters of_rank(int world_rank);
    [[nodiscard]] std::uint64_t operator[](Field f) const { return v[f]; }
    Counters operator-(Counters const& other) const;
    Counters& operator+=(Counters const& other);
};

/// @brief Before/after counter snapshots of one timed phase. Each rank
/// snapshots only itself, at its own phase boundaries, so a delta contains
/// exactly the rank's phase traffic and no in-flight synchronisation.
class PhaseCounters {
public:
    explicit PhaseCounters(int ranks) : before_(ranks), after_(ranks) {}
    void begin(int rank) { before_[rank] = Counters::of_rank(rank); }
    void end(int rank) { after_[rank] = Counters::of_rank(rank); }
    [[nodiscard]] Counters rank_delta(int rank) const { return after_[rank] - before_[rank]; }
    [[nodiscard]] Counters total() const;

private:
    std::vector<Counters> before_;
    std::vector<Counters> after_;
};

/// @brief A span the benchmark records around one call into a layer.
struct BenchSpan {
    char const* layer;
    char const* op;
    int rank;
    double start_s;
    double end_s;
};

/// @brief The benchmark's own spans: one bounded buffer per rank, appended
/// to only by that rank's thread, written out once when the run ends.
class SpanLog {
public:
    static constexpr std::size_t kPerRank = std::size_t{1} << 14;

    void resize(int ranks);
    /// @brief Records a span when tracing is on; drops it once the rank's buffer is full.
    void add(int rank, char const* layer, char const* op, double start_s, double end_s) {
        if (!enabled_.load(std::memory_order_relaxed)) {
            return;
        }
        auto& buffer = per_rank_[static_cast<std::size_t>(rank)];
        if (buffer.size() < kPerRank) {
            buffer.push_back({layer, op, rank, start_s, end_s});
        } else {
            ++dropped_[static_cast<std::size_t>(rank)];
        }
    }
    void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
    /// @brief Adds spans drained from xmpi::profile (kamping plans, engine, kasched phases).
    void add_profile_spans(std::vector<xmpi::profile::Span> const& spans);
    /// @brief Writes every span as a JSON array; returns false when the file cannot be written.
    bool write(std::string const& path) const;

private:
    std::atomic<bool> enabled_{false};
    std::vector<std::vector<BenchSpan>> per_rank_;
    std::vector<std::uint64_t> dropped_;
    std::vector<xmpi::profile::Span> profile_spans_;
};

/// @brief Everything a workload reports: metrics with units and sample
/// counts, exact counts, and failed operations against attempted ones.
/// Rank threads may call fail()/attempt() concurrently.
class Report {
public:
    struct Metric {
        double value;
        std::string unit;
        std::size_t samples;
    };

    void set(std::string const& name, double value, std::string const& unit, std::size_t samples);
    /// @brief An exact count that must repeat bit-for-bit for a fixed seed and size.
    void exact(std::string const& name, std::uint64_t value);
    void attempt(std::uint64_t operations);
    /// @brief Records one failed operation with a description (first few kept).
    void fail(std::string const& what);
    /// @brief Counts @c code != 0 (an XMPI error code) as a failed operation.
    void check_code(int code, char const* call);

    /// @brief Human-readable lines followed by one JSON line.
    void print(std::string const& workload) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::uint64_t> exact_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// @brief The transport per-layer metrics (coalesced share, messages per
/// ring slot, ring-full fallbacks, pool misses per send) of one phase.
void report_transport(Report& report, Counters const& c);

/// @brief Time budget of a timed loop, or a fixed iteration count in tiny mode.
class Budget {
public:
    Budget(Options const& options, double share, std::uint64_t tiny_iterations)
        : tiny_(options.tiny),
          tiny_iterations_(tiny_iterations),
          end_s_(wall_s() + options.seconds * share) {}
    /// @brief True while iteration @c done (0-based) should still run.
    [[nodiscard]] bool more(std::uint64_t done) const {
        return tiny_ ? done < tiny_iterations_ : wall_s() < end_s_;
    }

private:
    bool tiny_;
    std::uint64_t tiny_iterations_;
    double end_s_;
};

/// @brief Single-thread costs of the innermost layers, measured by direct
/// calls before the traced run of a workload (zero in untraced runs).
struct DirectLayers {
    double ring_push_pop_ns = 0.0;
    double ring_append_ns = 0.0;
    double select_ns = 0.0;
};

/// @brief Arguments shared by all workload entry points.
struct Context {
    Options const& options;
    Report& report;
    SpanLog& spans;
    DirectLayers direct;
};

/// @brief Set-up repetitions per run; setup_s is their median.
inline int setup_repetitions(Options const& options) { return options.tiny ? 2 : 25; }

/// @brief Creates setup_repetitions() worlds of @c ranks rank threads. In
/// each, every rank runs @c setup (communicator, buffers, plans, windows)
/// and meets the others in a barrier; rank 0 takes the time since the World
/// was created as one setup_s sample. Only the last world goes on to run
/// @c measure(rank, state), so work moved into set-up shows in setup_s.
template <typename Setup, typename Measure>
void run_worlds(Context& ctx, int ranks, Setup&& setup, Measure&& measure) {
    int const reps = setup_repetitions(ctx.options);
    std::vector<double> samples(static_cast<std::size_t>(reps));
    ctx.spans.resize(ranks);
    for (int rep = 0; rep < reps; ++rep) {
        bool const measured = rep + 1 == reps;
        double const start = wall_s();
        xmpi::World::run_ranked(ranks, [&](int rank) {
            pin_current_thread(rank);
            auto state = setup(rank);
            ctx.report.check_code(XMPI_Barrier(XMPI_COMM_WORLD), "XMPI_Barrier");
            if (rank == 0) {
                samples[static_cast<std::size_t>(rep)] = wall_s() - start;
            }
            if (measured) {
                measure(rank, state);
            }
        });
    }
    ctx.report.set("setup_s", median(samples), "s", samples.size());
}

/// @name Workload entry points
/// @{
void run_p2p_pingpong(Context& ctx);
void run_p2p_stream(Context& ctx);
void run_collectives(Context& ctx);
void run_kasched(Context& ctx);
/// @}

/// @brief Direct single-thread calls into the transport ring and the
/// collective registry: ring.push_pop_ns, ring.append_ns and coll.select_ns.
DirectLayers measure_direct_layers(Options const& options);

} // namespace perfbench
