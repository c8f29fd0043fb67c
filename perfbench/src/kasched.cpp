/// @file kasched.cpp
/// @brief The kasched workload: 4 ranks run apps::kasched::run_scheduler
/// over 2^20 tasks on an elastic world with skewed initial placement, one
/// fresh world per run. It is the only workload on RMA windows (atomics
/// under passive-target locks), the sparse NBX alltoall and the apps layer.
/// After each run the ranks time paired kamping fetch_op / raw
/// XMPI_Fetch_and_op blocks on a window, the binding overhead of the RMA
/// layer the scheduler is built on.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/kasched/scheduler.hpp"
#include "common.hpp"
#include "kamping/plugin/plugins.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kAtomicsPerBlock = 2000;
constexpr int kAtomicPairs = 16;
/// Scheduler runs per pass in tiny mode.
constexpr std::uint64_t kTinyRuns = 2;

/// What one scheduler run produced.
struct RunResult {
    double setup_s = 0.0;
    double elapsed_s = 0.0;
    double cpu_s = 0.0; ///< summed over ranks
    std::vector<apps::kasched::Stats> stats = std::vector<apps::kasched::Stats>(kRanks);
    Counters counters;
    std::vector<std::uint64_t> executed = std::vector<std::uint64_t>(kRanks, 0);
    std::vector<double> atomic_ratio; ///< kamping / raw fetch_op block time, per pair and rank
};

/// One block of fetch-and-add(1) on the next rank's window element.
template <bool Kamping>
void atomics_block(kamping::Window<std::uint64_t>& win, int target, Report& report) {
    std::uint64_t const one = 1;
    std::vector<std::uint64_t> fetched(1);
    win.lock(target, kamping::LockType::shared);
    for (int i = 0; i < kAtomicsPerBlock; ++i) {
        if constexpr (Kamping) {
            win.fetch_op(kamping::send_buf(one), kamping::target_rank(target), kamping::op(std::plus<>{}),
                         kamping::recv_buf(fetched));
        } else {
            report.check_code(
                XMPI_Fetch_and_op(
                    &one, fetched.data(), XMPI_UNSIGNED_LONG, target, 0, XMPI_SUM, win.mpi_win()),
                "XMPI_Fetch_and_op");
        }
    }
    win.unlock(target);
}

/// @brief One world: set-up (world, communicator, window) and, unless
/// @c setup_only, one scheduler run followed by the paired atomics blocks.
RunResult run_once(Context& ctx, apps::kasched::Config const& config, bool setup_only) {
    RunResult result;
    PhaseCounters counters(kRanks);
    std::vector<double> end_s(kRanks, 0.0);
    std::vector<double> cpu_s(kRanks, 0.0);
    std::vector<std::vector<double>> ratios(kRanks);
    double start_s = 0.0;
    double const created = wall_s();
    {
        // Capacity == size makes the world elastic, as run_scheduler's
        // recovery path expects; no faults are injected.
        xmpi::World world(kRanks, {}, kRanks);
        std::vector<std::thread> threads;
        for (int rank = 0; rank < kRanks; ++rank) {
            threads.emplace_back([&, rank] {
                pin_current_thread(rank);
                world.attach_current_thread(rank);
                try {
                    kamping::FullCommunicator comm;
                    auto win = comm.win_allocate<std::uint64_t>(1);
                    comm.barrier();
                    if (rank == 0) {
                        start_s = wall_s();
                        result.setup_s = start_s - created;
                    }
                    if (!setup_only) {
                        comm.barrier();
                        counters.begin(rank);
                        double const cpu0 = thread_cpu_s();
                        result.stats[static_cast<std::size_t>(rank)] = apps::kasched::run_scheduler(comm, config);
                        end_s[static_cast<std::size_t>(rank)] = wall_s();
                        cpu_s[static_cast<std::size_t>(rank)] = thread_cpu_s() - cpu0;
                        counters.end(rank);

                        int const target = (rank + 1) % kRanks;
                        comm.barrier();
                        for (int pair = 0; pair < kAtomicPairs; ++pair) {
                            double const t0 = wall_s();
                            atomics_block<true>(win, target, ctx.report);
                            double const t1 = wall_s();
                            atomics_block<false>(win, target, ctx.report);
                            double const t2 = wall_s();
                            ctx.spans.add(rank, "kamping", "fetch_op_block", t0, t1);
                            ctx.spans.add(rank, "xmpi", "fetch_and_op_block", t1, t2);
                            if (pair > 0) { // the first pair warms up
                                ratios[static_cast<std::size_t>(rank)].push_back(ratio(t1 - t0, t2 - t1));
                            }
                        }
                        comm.barrier();
                        // Every rank's element was incremented by its predecessor only.
                        std::vector<std::uint64_t> value(1);
                        win.lock(rank, kamping::LockType::shared);
                        win.fetch_op(
                            kamping::send_buf(std::uint64_t{0}), kamping::target_rank(rank),
                            kamping::op(std::plus<>{}), kamping::recv_buf(value));
                        win.unlock(rank);
                        if (value[0] != 2ull * kAtomicPairs * kAtomicsPerBlock) {
                            ctx.report.fail("kasched: fetch_op counter differs from the number of increments");
                        }
                        ctx.report.attempt(2ull * kAtomicPairs * kAtomicsPerBlock);
                    }
                    comm.barrier();
                    win.free();
                } catch (std::exception const& error) {
                    ctx.report.fail(std::string("kasched rank aborted: ") + error.what());
                }
                world.detach_current_thread();
            });
        }
        for (auto& thread: threads) {
            thread.join();
        }
    }
    result.elapsed_s = *std::max_element(end_s.begin(), end_s.end()) - start_s;
    for (int rank = 0; rank < kRanks; ++rank) {
        result.cpu_s += cpu_s[static_cast<std::size_t>(rank)];
        result.executed[static_cast<std::size_t>(rank)] = counters.rank_delta(rank)[Counters::tasks_executed];
        auto const& r = ratios[static_cast<std::size_t>(rank)];
        result.atomic_ratio.insert(result.atomic_ratio.end(), r.begin(), r.end());
    }
    result.counters = counters.total();
    return result;
}

/// @brief Drains xmpi's span log every 10 ms while a traced run records
/// (a 2^20-task run records tens of millions of spans), keeping only the
/// sums the sched and rma metrics need and a bounded sample for the span
/// file. The thread sleeps between drains, so it adds no runnable rank.
class SpanDrain {
public:
    explicit SpanDrain(SpanLog& log) : log_(log), thread_([this] { loop(); }) {}
    SpanDrain(SpanDrain const&) = delete;
    SpanDrain& operator=(SpanDrain const&) = delete;
    ~SpanDrain() { stop(); }

    /// @brief Joins the thread and drains what is left.
    void stop() {
        if (thread_.joinable()) {
            done_.store(true, std::memory_order_relaxed);
            thread_.join();
            drain();
        }
    }
    /// Summed durations of sched_work, sched_round and sched_submit spans.
    double phase_s[3] = {0.0, 0.0, 0.0};
    /// Summed RMA epoch waits noted on kamping spans.
    double epoch_wait_s = 0.0;

private:
    void loop() {
        while (!done_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            drain();
        }
    }
    void drain() {
        auto const spans = xmpi::profile::take_spans();
        for (auto const& span: spans) {
            std::string_view const op = span.op;
            phase_s[0] += op == "sched_work" ? span.duration_s : 0.0;
            phase_s[1] += op == "sched_round" ? span.duration_s : 0.0;
            phase_s[2] += op == "sched_submit" ? span.duration_s : 0.0;
            epoch_wait_s += span.epoch_wait_s;
        }
        log_.add_profile_spans(spans);
    }

    SpanLog& log_;
    std::atomic<bool> done_{false};
    std::thread thread_; ///< last: started once the members it uses exist
};

/// Conservation: complete ledger and bit-identical checksum on every rank,
/// each task executed exactly once, and the checksum of every run equal.
void check_run(Context& ctx, RunResult const& run, std::uint64_t n_tasks, double& reference_checksum) {
    ctx.report.attempt(n_tasks);
    std::uint64_t executed = 0;
    for (auto const& stats: run.stats) {
        if (stats.done_tasks != n_tasks || !stats.checksum_converged) {
            ctx.report.fail("kasched: a rank finished with an incomplete ledger or a diverged checksum");
        }
        if (std::isnan(reference_checksum)) {
            reference_checksum = stats.checksum;
        } else if (stats.checksum != reference_checksum) {
            ctx.report.fail("kasched: checksum differs from the first run's");
        }
    }
    for (auto count: run.executed) {
        executed += count;
    }
    if (executed != n_tasks) {
        ctx.report.fail("kasched: tasks executed != tasks submitted");
    }
}

} // namespace

void run_kasched(Context& ctx) {
    Options const& options = ctx.options;
    apps::kasched::Config config;
    config.n_tasks = options.tiny ? (std::uint64_t{1} << 14) : (std::uint64_t{1} << 20);
    config.seed = options.seed;
    ctx.spans.resize(kRanks);

    int const passes = options.trace ? 2 : 1;
    std::vector<std::vector<RunResult>> runs(static_cast<std::size_t>(passes));
    std::vector<std::vector<double>> sched_s(3); // per traced run: work, round, submit (mean per rank)
    std::vector<double> epoch_wait_s;            // per traced run, summed over ranks
    double reference_checksum = std::nan("");
    std::vector<double> setup_s;
    for (int rep = 0; rep < setup_repetitions(options); ++rep) {
        setup_s.push_back(run_once(ctx, config, /*setup_only=*/true).setup_s);
    }
    for (int pass = 0; pass < passes; ++pass) {
        bool const traced = pass == 1;
        xmpi::profile::set_tracing_enabled(traced);
        ctx.spans.set_enabled(traced);
        Budget const budget(options, options.trace ? 0.5 : 1.0, kTinyRuns);
        for (std::uint64_t run = 0; budget.more(run); ++run) {
            std::optional<SpanDrain> drain;
            if (traced) {
                drain.emplace(ctx.spans);
            }
            RunResult result = run_once(ctx, config, /*setup_only=*/false);
            setup_s.push_back(result.setup_s);
            check_run(ctx, result, config.n_tasks, reference_checksum);
            if (drain) {
                drain->stop();
                for (std::size_t i = 0; i < 3; ++i) {
                    sched_s[i].push_back(drain->phase_s[i] / kRanks);
                }
                epoch_wait_s.push_back(drain->epoch_wait_s);
            }
            runs[static_cast<std::size_t>(pass)].push_back(std::move(result));
        }
    }
    xmpi::profile::set_tracing_enabled(false);
    ctx.spans.set_enabled(false);

    Report& report = ctx.report;
    auto const collect = [](std::vector<RunResult> const& list, auto&& field) {
        std::vector<double> values;
        for (auto const& run: list) {
            values.push_back(field(run));
        }
        return values;
    };
    auto const& untraced = runs[0];
    auto const n = static_cast<double>(config.n_tasks);
    std::vector<double> const elapsed = collect(untraced, [](RunResult const& r) { return r.elapsed_s; });
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("latency_us_p50", median(elapsed) * 1e6, "us", untraced.size());
    // Throughput and CPU over all runs together: a handful of multi-second
    // runs, so the aggregate is steadier than a median of per-run rates.
    double elapsed_total = 0.0;
    double cpu_total = 0.0;
    for (auto const& run: untraced) {
        elapsed_total += run.elapsed_s;
        cpu_total += run.cpu_s;
    }
    double const tasks_total = n * static_cast<double>(untraced.size());
    report.set("ops_per_s", ratio(tasks_total, elapsed_total), "1/s", untraced.size());
    report.set("tasks_per_s", ratio(tasks_total, elapsed_total), "1/s", untraced.size());
    report.set("cpu_ns_per_op", ratio(cpu_total, tasks_total) * 1e9, "ns", untraced.size());
    std::vector<double> ratios;
    std::uint64_t executed = 0;
    for (auto const& run: untraced) {
        ratios.insert(ratios.end(), run.atomic_ratio.begin(), run.atomic_ratio.end());
        for (auto count: run.executed) {
            executed += count;
        }
    }
    report.set("binding_overhead", median(ratios), "ratio", ratios.size());
    report.exact("sched.tasks_executed", executed);

    if (!options.trace) {
        return;
    }
    auto const counter = [](Counters const& c, Counters::Field f) { return static_cast<double>(c[f]); };
    auto const per_run = [&](Counters::Field field) {
        return median(collect(untraced, [&](RunResult const& r) { return counter(r.counters, field); }));
    };
    report.set("rma.atomics_per_task", per_run(Counters::rma_atomics) / n, "1/task", untraced.size());
    report.set("rma.epoch_waits", per_run(Counters::rma_epoch_waits), "count", untraced.size());
    report.set("rma.epoch_wait_s", median(epoch_wait_s), "s", epoch_wait_s.size());
    Counters total;
    for (auto const& run: untraced) {
        total += run.counters;
    }
    report.set("sched.steal_success_frac",
               ratio(counter(total, Counters::steals_succeeded), counter(total, Counters::steals_attempted)), "frac",
               total[Counters::steals_attempted]);
    report.set("sched.exec_imbalance", median(collect(untraced, [](RunResult const& r) {
                   auto const& e = r.executed;
                   double const most = static_cast<double>(*std::max_element(e.begin(), e.end()));
                   double const all = static_cast<double>(std::accumulate(e.begin(), e.end(), std::uint64_t{0}));
                   return ratio(most * kRanks, all);
               })),
               "ratio", untraced.size());
    report.set("sched.rounds", median(collect(untraced, [](RunResult const& r) {
                   std::uint64_t most = 0;
                   for (auto const& s: r.stats) {
                       most = std::max(most, s.rounds);
                   }
                   return static_cast<double>(most);
               })),
               "count", untraced.size());
    report.set("sched.work_s", median(sched_s[0]), "s", sched_s[0].size());
    report.set("sched.round_s", median(sched_s[1]), "s", sched_s[1].size());
    report.set("sched.submit_s", median(sched_s[2]), "s", sched_s[2].size());
    report_transport(report, total);
    std::vector<double> const traced_elapsed = collect(runs[1], [](RunResult const& r) { return r.elapsed_s; });
    report.set("trace.overhead", ratio(median(traced_elapsed), median(elapsed)), "ratio", traced_elapsed.size());
}

} // namespace perfbench
