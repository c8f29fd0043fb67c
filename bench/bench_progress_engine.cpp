/// @file bench_progress_engine.cpp
/// @brief Progress-engine scaling benchmark: N concurrent non-blocking
/// allreduces through the shared worker pool versus the retired
/// thread-per-request design (emulated by spawning one helper thread per
/// operation that runs the blocking form on the operation's communicator).
///
/// Two measurements per concurrency level:
///   - completion latency: initiate N operations, complete them all, p50
///     over repetitions (for the baseline this includes thread create/join,
///     which *was* the initiation/completion cost of the old design),
///   - peak live threads while all N operations are in flight (Linux,
///     /proc/self/status). The baseline is gated so every helper thread
///     exists simultaneously — the steady state of an application that
///     initiates its window before any peer arrives; the engine is sampled
///     mid-flight with no gate (queued tasks are the whole point).
///
/// Results are printed and written to BENCH_progress.json. Exit status
/// enforces the engine's headline claims at the largest measured level
/// (>= 5x fewer threads than thread-per-request) and at 1 in-flight op
/// (no completion-latency regression).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

constexpr int kWorldSize = 4;

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

struct LevelResult {
    int concurrency = 0;
    int reps = 0;
    double engine_usec_p50 = 0.0;
    double baseline_usec_p50 = 0.0;
    long engine_peak_threads = 0;
    long baseline_peak_threads = 0;
    xmpi::profile::Snapshot counters; ///< every rank's counters, summed
    std::uint64_t queue_depth_max = 0; ///< max over ranks, not the sum

    [[nodiscard]] double thread_reduction() const {
        return engine_peak_threads == 0
                   ? 0.0
                   : static_cast<double>(baseline_peak_threads)
                         / static_cast<double>(engine_peak_threads);
    }
};

double p50(std::vector<double> samples) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// @brief Engine mode: N concurrent XMPI_Iallreduce (one per dup'd
/// communicator), completed with Waitall. Also collects the engine counters
/// summed over all ranks and the mid-flight thread count.
void run_engine(int concurrency, int warmup, int reps, LevelResult& out) {
    std::vector<double> batch_s;
    long peak_threads = 0;
    xmpi::World::run_ranked(kWorldSize, [&](int rank) {
        std::vector<XMPI_Comm> comms(static_cast<std::size_t>(concurrency));
        for (auto& comm: comms) {
            XMPI_Comm_dup(XMPI_COMM_WORLD, &comm);
        }
        std::vector<int> send(static_cast<std::size_t>(concurrency), rank + 1);
        std::vector<int> recv(static_cast<std::size_t>(concurrency), 0);
        std::vector<XMPI_Request> requests(static_cast<std::size_t>(concurrency));

        for (int rep = 0; rep < warmup + reps; ++rep) {
            XMPI_Barrier(XMPI_COMM_WORLD);
            double const start = XMPI_Wtime();
            for (int i = 0; i < concurrency; ++i) {
                auto const slot = static_cast<std::size_t>(i);
                XMPI_Iallreduce(
                    &send[slot], &recv[slot], 1, XMPI_INT, XMPI_SUM, comms[slot],
                    &requests[slot]);
            }
            if (rank == 0) {
                peak_threads = std::max(peak_threads, live_thread_count());
            }
            XMPI_Waitall(concurrency, requests.data(), XMPI_STATUSES_IGNORE);
            XMPI_Barrier(XMPI_COMM_WORLD);
            if (rank == 0 && rep >= warmup) {
                batch_s.push_back(XMPI_Wtime() - start);
            }
        }

        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
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
    out.engine_usec_p50 = p50(batch_s) * 1e6;
    out.engine_peak_threads = peak_threads;
}

/// @brief Thread-per-request baseline: one std::thread per operation running
/// the blocking allreduce under the initiating rank's context — what the
/// retired thread-per-request design did for every Icollective.
void run_baseline(int concurrency, int warmup, int reps, LevelResult& out) {
    std::vector<double> batch_s;
    long peak_threads = 0;

    // Gate for the thread-census pass: helpers hold until released, so all
    // world_size * concurrency of them exist at the sampling point.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;

    xmpi::World::run_ranked(kWorldSize, [&](int rank) {
        std::vector<XMPI_Comm> comms(static_cast<std::size_t>(concurrency));
        for (auto& comm: comms) {
            XMPI_Comm_dup(XMPI_COMM_WORLD, &comm);
        }
        std::vector<int> send(static_cast<std::size_t>(concurrency), rank + 1);
        std::vector<int> recv(static_cast<std::size_t>(concurrency), 0);
        auto const ctx = xmpi::detail::current_context();

        auto const spawn = [&](int i, bool gated) {
            auto const slot = static_cast<std::size_t>(i);
            return std::thread([&, slot, gated] {
                xmpi::detail::current_context() = ctx;
                if (gated) {
                    std::unique_lock lock(gate_mutex);
                    gate_cv.wait(lock, [&] { return gate_open; });
                }
                XMPI_Allreduce(
                    &send[slot], &recv[slot], 1, XMPI_INT, XMPI_SUM, comms[slot]);
            });
        };

        // Latency passes: ungated, spawn + complete-all, like a window of
        // initiations followed by a Waitall under the old design.
        for (int rep = 0; rep < warmup + reps; ++rep) {
            XMPI_Barrier(XMPI_COMM_WORLD);
            double const start = XMPI_Wtime();
            std::vector<std::thread> helpers;
            helpers.reserve(static_cast<std::size_t>(concurrency));
            for (int i = 0; i < concurrency; ++i) {
                helpers.push_back(spawn(i, /*gated=*/false));
            }
            for (auto& helper: helpers) {
                helper.join();
            }
            XMPI_Barrier(XMPI_COMM_WORLD);
            if (rank == 0 && rep >= warmup) {
                batch_s.push_back(XMPI_Wtime() - start);
            }
        }

        // Thread-census pass: every helper exists before any completes.
        {
            std::vector<std::thread> helpers;
            helpers.reserve(static_cast<std::size_t>(concurrency));
            for (int i = 0; i < concurrency; ++i) {
                helpers.push_back(spawn(i, /*gated=*/true));
            }
            XMPI_Barrier(XMPI_COMM_WORLD);
            if (rank == 0) {
                peak_threads = std::max(peak_threads, live_thread_count());
                std::lock_guard lock(gate_mutex);
                gate_open = true;
            }
            gate_cv.notify_all();
            for (auto& helper: helpers) {
                helper.join();
            }
        }

        for (auto& comm: comms) {
            XMPI_Comm_free(&comm);
        }
    });
    out.baseline_usec_p50 = p50(batch_s) * 1e6;
    out.baseline_peak_threads = peak_threads;
}

std::string to_json(LevelResult const& r) {
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"concurrency\": %d, \"reps\": %d, \"engine_usec_p50\": %.2f, "
        "\"baseline_usec_p50\": %.2f, \"engine_peak_threads\": %ld, "
        "\"baseline_peak_threads\": %ld, \"thread_reduction\": %.1f, "
        "\"engine_tasks\": %llu, \"inline_fallbacks\": %llu, "
        "\"queue_depth_max\": %llu, \"caller_steals\": %llu}",
        r.concurrency, r.reps, r.engine_usec_p50, r.baseline_usec_p50, r.engine_peak_threads,
        r.baseline_peak_threads, r.thread_reduction(),
        static_cast<unsigned long long>(r.counters.engine_tasks),
        static_cast<unsigned long long>(r.counters.engine_inline_fallbacks),
        static_cast<unsigned long long>(r.queue_depth_max),
        static_cast<unsigned long long>(r.counters.engine_caller_steals));
    return buffer;
}

} // namespace

int main(int argc, char** argv) {
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        }
    }

    struct Level {
        int concurrency;
        int warmup;
        int reps;
    };
    std::vector<Level> levels = quick
                                    ? std::vector<Level>{{1, 5, 50}, {8, 2, 20}, {64, 1, 5}}
                                    : std::vector<Level>{
                                          {1, 20, 200}, {8, 5, 50}, {64, 2, 20}, {512, 1, 3}};

    std::printf(
        "%6s %8s %14s %16s %10s %12s %10s\n", "conc", "reps", "engine p50/us",
        "baseline p50/us", "eng thr", "base thr", "reduction");
    std::vector<LevelResult> results;
    for (auto const& level: levels) {
        LevelResult result;
        result.concurrency = level.concurrency;
        result.reps = level.reps;
        run_engine(level.concurrency, level.warmup, level.reps, result);
        run_baseline(level.concurrency, level.warmup, level.reps, result);
        std::printf(
            "%6d %8d %14.2f %16.2f %10ld %12ld %9.1fx\n", result.concurrency, result.reps,
            result.engine_usec_p50, result.baseline_usec_p50, result.engine_peak_threads,
            result.baseline_peak_threads, result.thread_reduction());
        results.push_back(result);
    }

    std::string json = "{\n  \"benchmark\": \"progress_engine\",\n";
    json += "  \"world_size\": " + std::to_string(kWorldSize) + ",\n";
    json += "  \"pool_threads\": "
            + std::to_string(xmpi::progress::default_thread_count()) + ",\n";
    json += "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        json += to_json(results[i]);
        json += i + 1 < results.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::printf("\n%s", json.c_str());
    if (std::FILE* file = std::fopen("BENCH_progress.json", "w")) {
        std::fputs(json.c_str(), file);
        std::fclose(file);
    }

    bool ok = true;
    for (auto const& result: results) {
        // The headline claim, checked at the largest level with a census
        // (>= 64 in-flight): the engine holds >= 5x fewer threads than
        // thread-per-request. Skipped where /proc is unavailable.
        if (result.concurrency >= 64 && result.baseline_peak_threads > 0
            && result.thread_reduction() < 5.0) {
            std::fprintf(
                stderr, "FAIL: thread reduction %.1fx < 5x at %d in-flight ops\n",
                result.thread_reduction(), result.concurrency);
            ok = false;
        }
        // No latency regression for a single non-blocking op: the engine
        // completes it at worst 1.5x the thread-per-request baseline (an
        // absolute floor absorbs scheduler noise on small machines).
        if (result.concurrency == 1 && result.engine_usec_p50 > 200.0
            && result.engine_usec_p50 > 1.5 * result.baseline_usec_p50) {
            std::fprintf(
                stderr, "FAIL: 1-op completion %.2fus vs baseline %.2fus (> 1.5x)\n",
                result.engine_usec_p50, result.baseline_usec_p50);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
