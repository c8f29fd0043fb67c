/// @file bench_sched.cpp
/// @brief kasched scheduler benchmark: task throughput versus rank count,
/// raw RMA-deque steal latency, and elastic recovery from a mid-run kill.
///
/// Three measurements:
///   - throughput: wall time for the scheduler to drain the full task pool
///     at each p, including the skewed initial placement that forces
///     stealing (rank 0 holds extra placement shares),
///   - steal latency: a two-rank micro-benchmark on the bare RmaDeque —
///     the thief's cost per successful cold-end steal (three window atomics:
///     two reads plus the claiming CAS) under a passive-target shared lock,
///   - recovery: a chaos-armed run that kills one rank mid-steal; survivors
///     ride the membership shrink, OR-merge their ledger replicas, re-queue
///     the dead rank's unfinished tasks, and the whole run is timed against
///     the undisturbed run at the same (p, n).
///
/// Results are printed and written to BENCH_sched.json. Exit status
/// enforces conservation on every run (ledger complete + bit-identical
/// checksum on every rank); the full run additionally gates the headline:
/// at p = 8 at least a million tasks queued and a nonzero steal count.
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/kasched/scheduler.hpp"
#include "bench_common.hpp"
#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using apps::kasched::Config;
using apps::kasched::RmaDeque;
using apps::kasched::Stats;

/// Aggregated outcome of one scheduler run (all ranks' stats folded).
struct RunResult {
    int p = 0;
    std::uint64_t n_tasks = 0;
    double elapsed_s = 0.0;
    std::uint64_t executed = 0;
    std::uint64_t steals_attempted = 0;
    std::uint64_t steals_succeeded = 0;
    std::uint64_t requeued = 0;
    std::uint64_t rounds = 0;
    std::uint64_t resyncs = 0;
    bool conserved = true; // every surviving rank: complete ledger, converged checksum

    [[nodiscard]] double tasks_per_s() const {
        return elapsed_s > 0.0 ? static_cast<double>(n_tasks) / elapsed_s : 0.0;
    }
};

/// @brief One scheduler run on an elastic world; when @c chaos_seed is
/// nonnegative, a seed-chosen rank is killed at its nth window atomic.
/// The wall clock covers the whole run including any recovery resync.
RunResult run_once(int p, Config const& config, long chaos_seed) {
    RunResult result;
    result.p = p;
    result.n_tasks = config.n_tasks;

    int victim = -1;
    if (chaos_seed >= 0) {
        auto const seed = static_cast<std::uint64_t>(chaos_seed);
        victim = 1 + static_cast<int>(seed % static_cast<std::uint64_t>(p - 1));
        xmpi::chaos::arm_next_world(xmpi::chaos::FaultPlan(seed).kill_at_call(
            victim, xmpi::chaos::Call::fetch_and_op, 1000 + static_cast<int>(seed % 1000)));
    }

    std::mutex fold_mutex;
    double t0 = 0.0;
    {
        // Capacity == p makes the world elastic, which the recovery run
        // needs; the undisturbed runs take the same world type so their
        // timings stay comparable.
        xmpi::World world(p, {}, p);
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(p));
        for (int rank = 0; rank < p; ++rank) {
            threads.emplace_back([&, rank] {
                world.attach_current_thread(rank);
                try {
                    kamping::FullCommunicator comm;
                    comm.barrier();
                    if (rank == 0) {
                        t0 = XMPI_Wtime();
                    }
                    auto const stats = apps::kasched::run_scheduler(comm, config);
                    std::lock_guard<std::mutex> lock(fold_mutex);
                    result.elapsed_s = XMPI_Wtime() - t0; // last finisher wins
                    result.executed += stats.tasks_executed;
                    result.steals_attempted += stats.steals_attempted;
                    result.steals_succeeded += stats.steals_succeeded;
                    result.requeued += stats.requeued_after_failure;
                    result.rounds = std::max(result.rounds, stats.rounds);
                    result.resyncs = std::max(result.resyncs, stats.resyncs);
                    if (!stats.checksum_converged || stats.done_tasks != config.n_tasks) {
                        result.conserved = false;
                    }
                } catch (xmpi::RankKilled const&) {
                    // The chaos victim; the survivors conserve its tasks.
                }
                world.detach_current_thread();
            });
        }
        for (auto& thread: threads) {
            thread.join();
        }
    }
    return result;
}

/// @brief Two-rank steal-latency micro: rank 0 fills its ring, rank 1 times
/// a drain of successful cold-end steals. @return thief-side microseconds
/// per successful steal.
double bench_steal_latency(std::uint32_t capacity, int rounds) {
    double usec_per_steal = 0.0;
    xmpi::World::run(2, [&] {
        kamping::FullCommunicator comm;
        int const rank = comm.rank();
        auto storage = RmaDeque::make_storage(capacity);
        auto win = comm.win_create(storage);
        RmaDeque deque(win, capacity, rank);
        for (int round = 0; round < rounds; ++round) {
            if (rank == 0) {
                auto epoch = win.lock_guard(0, kamping::LockType::shared);
                for (std::uint64_t i = 0; i < capacity; ++i) {
                    deque.push(i);
                }
                epoch.close();
            }
            comm.barrier();
            if (rank == 1) {
                auto epoch = win.lock_guard(0, kamping::LockType::shared);
                double const w0 = XMPI_Wtime();
                std::uint64_t stolen = 0;
                while (deque.steal_from(0) != apps::kasched::no_task) {
                    ++stolen;
                }
                double const w1 = XMPI_Wtime();
                epoch.close();
                // No concurrent owner: every attempt but the last succeeds.
                usec_per_steal += (w1 - w0) * 1e6 / static_cast<double>(stolen);
            }
            comm.barrier();
        }
        win.free();
    });
    return usec_per_steal / rounds;
}

bench::Json to_json(RunResult const& r) {
    return bench::Json::object()
        .set("p", r.p)
        .set("n_tasks", r.n_tasks)
        .set("elapsed_s", bench::Json(r.elapsed_s, 4))
        .set("tasks_per_s", bench::Json(r.tasks_per_s(), 0))
        .set("steals_attempted", r.steals_attempted)
        .set("steals_succeeded", r.steals_succeeded)
        .set("requeued", r.requeued)
        .set("rounds", r.rounds)
        .set("resyncs", r.resyncs)
        .set("conserved", r.conserved);
}

} // namespace

int main(int argc, char** argv) {
    bool const quick = bench::Options::parse(argc, argv).quick;

    // The headline run queues 2^20 > 10^6 tasks at p = 8; quick mode keeps
    // the same shape at CI-smoke scale.
    std::vector<int> const ranks = quick ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8};
    Config config;
    config.n_tasks = quick ? (std::uint64_t{1} << 14) : (std::uint64_t{1} << 20);

    std::vector<RunResult> throughput;
    for (int const p: ranks) {
        throughput.push_back(run_once(p, config, /*chaos_seed=*/-1));
        std::printf(
            "p=%d: %llu tasks in %.3fs (%.0f tasks/s, %llu stolen of %llu attempts)\n",
            p, static_cast<unsigned long long>(config.n_tasks), throughput.back().elapsed_s,
            throughput.back().tasks_per_s(),
            static_cast<unsigned long long>(throughput.back().steals_succeeded),
            static_cast<unsigned long long>(throughput.back().steals_attempted));
    }

    double const steal_usec = bench_steal_latency(
        /*capacity=*/std::uint32_t{1} << (quick ? 10 : 13), /*rounds=*/quick ? 3 : 8);
    std::printf("steal latency: %.3f us per successful steal (p=2 micro)\n", steal_usec);

    // Recovery at the sweep's middle p: same (p, n) as a throughput run, so
    // the elapsed-time delta is the cost of dying and re-queueing.
    Config recovery_config = config;
    recovery_config.n_tasks = quick ? (std::uint64_t{1} << 14) : (std::uint64_t{1} << 18);
    RunResult const baseline = run_once(4, recovery_config, /*chaos_seed=*/-1);
    RunResult const recovery = run_once(4, recovery_config, /*chaos_seed=*/3);
    std::printf(
        "recovery: %.3fs undisturbed vs %.3fs with a kill (%llu re-queued, %llu resync)\n",
        baseline.elapsed_s, recovery.elapsed_s,
        static_cast<unsigned long long>(recovery.requeued),
        static_cast<unsigned long long>(recovery.resyncs));

    auto runs = bench::Json::array();
    for (auto const& r: throughput) {
        runs.push(to_json(r));
    }
    bool ok = bench::Json::object()
                  .set("benchmark", "sched")
                  .set("quick", quick)
                  .set("throughput", std::move(runs))
                  .set("steal_latency_usec", steal_usec)
                  .set("recovery", bench::Json::object()
                                       .set("baseline", to_json(baseline))
                                       .set("with_kill", to_json(recovery)))
                  .emit("sched");

    // Gate 1 (always): every run — undisturbed or killed — must conserve
    // the task set: complete ledger and bit-identical checksum everywhere.
    for (auto const& r: throughput) {
        if (!r.conserved) {
            std::fprintf(stderr, "FAIL: p=%d run did not conserve the task set\n", r.p);
            ok = false;
        }
    }
    if (!baseline.conserved || !recovery.conserved) {
        std::fprintf(stderr, "FAIL: recovery pair did not conserve the task set\n");
        ok = false;
    }
    if (recovery.resyncs == 0 || recovery.requeued == 0) {
        std::fprintf(stderr, "FAIL: chaos run saw no resync/re-queue — kill did not land\n");
        ok = false;
    }
    // Gate 2 (full runs): the headline — a million-task pool at p = 8 with
    // real stealing off the skewed placement.
    if (!quick) {
        auto const& headline = throughput.back();
        if (headline.p != 8 || headline.n_tasks < 1000000 || headline.steals_succeeded == 0) {
            std::fprintf(
                stderr, "FAIL: headline run too small or steal-free (p=%d, n=%llu, stolen=%llu)\n",
                headline.p, static_cast<unsigned long long>(headline.n_tasks),
                static_cast<unsigned long long>(headline.steals_succeeded));
            ok = false;
        }
    }
    if (ok) {
        std::printf("all runs conserved the task set; recovery re-queued and converged\n");
    }
    return ok ? 0 : 1;
}
