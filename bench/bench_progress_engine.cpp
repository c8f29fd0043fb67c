/// @file bench_progress_engine.cpp
/// @brief Progress-engine scaling benchmark: N concurrent non-blocking
/// allreduces through the shared worker pool, against the same N allreduces
/// run blocking, one after the other, on the same communicators.
///
/// Two measurements per concurrency level:
///   - completion latency: one round initiates N XMPI_Iallreduce and
///     completes them with XMPI_Waitall; the blocking round runs N
///     XMPI_Allreduce. Both are measured by bench::per_round_paired_cost
///     (paired batches in ABBA order); the medians of the per-round wall
///     time are reported as engine_usec_p50 and blocking_usec_p50,
///   - peak live threads while all N operations are in flight (Linux,
///     /proc/self/status), sampled in separate census rounds so the
///     /proc read never lands inside a timed round.
///
/// Results are printed and written to BENCH_progress.json. Exit status
/// enforces the engine's two claims:
///   - threads: at every level the process holds at most the main thread,
///     one thread per rank, the pool, and the temporary workers the stall
///     valve grew (engine_stall_escalations) — N in-flight operations cost
///     O(pool) threads, not N,
///   - single-op latency: at 1 in-flight op, Iallreduce + Wait completes
///     within kSingleOpFactor x the blocking allreduce on the same
///     communicator, and never above kSingleOpCeilingUsec (the engine's
///     handoff cost, bounded).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "xmpi/xmpi.hpp"

namespace {

constexpr int kWorldSize = 4;

/// Single-op latency bound: min(kSingleOpCeilingUsec, kSingleOpFactor x
/// the blocking round). In 40 --quick runs on a 4-vCPU host the engine
/// round took 73-177 us while the blocking round sat at either 3.5-5.7 us
/// or 27-73 us, depending on the world; the factor clears the largest
/// engine/blocking ratio of the fast mode (25x) by 1.6x, and the ceiling
/// keeps the slow mode from loosening the bound past 200 us.
constexpr double kSingleOpFactor = 40.0;
constexpr double kSingleOpCeilingUsec = 200.0;

long live_thread_count() {
#ifdef __linux__
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) {
        return 0;
    }
    long threads = 0;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::sscanf(line, "Threads: %ld", &threads) == 1) {
            break;
        }
    }
    std::fclose(status);
    return threads;
#else
    return 0;
#endif
}

struct Level {
    int concurrency;
    int rounds; ///< rounds per timed batch
    int pairs;  ///< paired batches
};

struct LevelResult {
    Level level{};
    bench::PairedCost cost;            ///< A = engine, B = blocking
    long engine_peak_threads = 0;
    xmpi::profile::Snapshot counters;  ///< every rank's counters, summed
    std::uint64_t queue_depth_max = 0; ///< max over ranks, not the sum

    [[nodiscard]] double single_op_bound_usec() const {
        return std::min(kSingleOpCeilingUsec, kSingleOpFactor * cost.b.wall_usec);
    }

    /// Main thread + rank threads + pool + stall-valve workers.
    [[nodiscard]] long thread_bound() const {
        return 1 + kWorldSize + static_cast<long>(xmpi::progress::default_thread_count())
               + static_cast<long>(counters.engine_stall_escalations);
    }
};

/// @brief One concurrency level: N concurrent XMPI_Iallreduce (one per
/// dup'd communicator) completed with Waitall, paired against N blocking
/// XMPI_Allreduce on the same communicators. Also collects the engine
/// counters summed over all ranks and the mid-flight thread count.
LevelResult run_level(Level const& level) {
    constexpr int kCensusRounds = 3;
    LevelResult out;
    out.level = level;
    auto const n = static_cast<std::size_t>(level.concurrency);
    xmpi::World::run_ranked(kWorldSize, [&](int rank) {
        std::vector<XMPI_Comm> comms(n);
        for (auto& comm: comms) {
            XMPI_Comm_dup(XMPI_COMM_WORLD, &comm);
        }
        std::vector<int> send(n, rank + 1);
        std::vector<int> recv(n, 0);
        std::vector<XMPI_Request> requests(n);
        auto const initiate = [&] {
            for (std::size_t i = 0; i < n; ++i) {
                XMPI_Iallreduce(
                    &send[i], &recv[i], 1, XMPI_INT, XMPI_SUM, comms[i], &requests[i]);
            }
        };

        for (int census = 0; census < kCensusRounds; ++census) {
            XMPI_Barrier(XMPI_COMM_WORLD);
            initiate();
            if (rank == 0) {
                out.engine_peak_threads = std::max(out.engine_peak_threads, live_thread_count());
            }
            XMPI_Waitall(level.concurrency, requests.data(), XMPI_STATUSES_IGNORE);
        }
        auto const cost = bench::per_round_paired_cost(
            level.rounds,
            [&] {
                initiate();
                XMPI_Waitall(level.concurrency, requests.data(), XMPI_STATUSES_IGNORE);
            },
            [&] {
                for (std::size_t i = 0; i < n; ++i) {
                    XMPI_Allreduce(&send[i], &recv[i], 1, XMPI_INT, XMPI_SUM, comms[i]);
                }
            },
            level.pairs);

        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
            out.cost = cost;
            for (int r = 0; r < kWorldSize; ++r) {
                auto const snapshot = xmpi::profile::snapshot_of(r);
                out.counters += snapshot;
                out.queue_depth_max =
                    std::max(out.queue_depth_max, snapshot.engine_queue_depth_max);
            }
        }
        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
    return out;
}

bench::Json to_json(LevelResult const& r) {
    return bench::Json::object()
        .set("concurrency", r.level.concurrency)
        .set("reps", r.level.rounds)
        .set("pairs", r.level.pairs)
        .set("engine_usec_p50", bench::Json(r.cost.a.wall_usec, 2))
        .set("blocking_usec_p50", bench::Json(r.cost.b.wall_usec, 2))
        .set("engine_peak_threads", r.engine_peak_threads)
        .set("thread_bound", r.thread_bound())
        .set("latency_bound_usec", bench::Json(r.single_op_bound_usec(), 2))
        .set("engine_tasks", r.counters.engine_tasks)
        .set("inline_fallbacks", r.counters.engine_inline_fallbacks)
        .set("queue_depth_max", r.queue_depth_max)
        .set("caller_steals", r.counters.engine_caller_steals)
        .set("stall_escalations", r.counters.engine_stall_escalations);
}

} // namespace

int main(int argc, char** argv) {
    bool const quick = bench::Options::parse(argc, argv).quick;
    std::vector<Level> const levels =
        quick ? std::vector<Level>{{1, 20, 15}, {8, 5, 9}, {64, 1, 5}}
              : std::vector<Level>{{1, 50, 31}, {8, 10, 15}, {64, 2, 9}, {512, 1, 5}};

    std::printf(
        "%6s %8s %14s %16s %10s %10s\n", "conc", "rounds", "engine p50/us", "blocking p50/us",
        "eng thr", "bound");
    std::vector<LevelResult> results;
    for (auto const& level: levels) {
        results.push_back(run_level(level));
        auto const& r = results.back();
        std::printf(
            "%6d %8d %14.2f %16.2f %10ld %10ld\n", level.concurrency, level.rounds,
            r.cost.a.wall_usec, r.cost.b.wall_usec, r.engine_peak_threads, r.thread_bound());
    }

    auto rows = bench::Json::array();
    for (auto const& result: results) {
        rows.push(to_json(result));
    }
    std::printf("\n");
    bool ok = bench::Json::object()
                  .set("benchmark", "progress_engine")
                  .set("world_size", kWorldSize)
                  .set("pool_threads", xmpi::progress::default_thread_count())
                  .set("results", std::move(rows))
                  .emit("progress");

    for (auto const& r: results) {
        // O(pool) threads at every level (skipped where /proc is unavailable).
        if (r.engine_peak_threads > r.thread_bound()) {
            std::fprintf(
                stderr, "FAIL: %ld live threads at %d in-flight ops (bound %ld)\n",
                r.engine_peak_threads, r.level.concurrency, r.thread_bound());
            ok = false;
        }
        // The engine's handoff cost for a single non-blocking op stays
        // bounded against the blocking call it replaces.
        if (r.level.concurrency == 1 && r.cost.a.wall_usec > r.single_op_bound_usec()) {
            std::fprintf(
                stderr, "FAIL: 1-op completion %.2fus vs blocking %.2fus (bound %.2fus)\n",
                r.cost.a.wall_usec, r.cost.b.wall_usec, r.single_op_bound_usec());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
