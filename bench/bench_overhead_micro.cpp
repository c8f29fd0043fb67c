/// @file bench_overhead_micro.cpp
/// @brief The (near) zero-overhead claim, measured directly (google-
/// benchmark): per-call cost of KaMPIng wrappers vs. hand-rolled calls
/// against the raw XMPI API, with the network model OFF so that only
/// software overhead is visible. The paper's claim: the generated code path
/// equals what a programmer would write by hand, so the difference is noise.
///
/// Each benchmark runs a self-contained 2-rank world per iteration batch;
/// reported time is per collective call.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "kamping/kamping.hpp"
#include "xmpi/xmpi.hpp"

namespace {

constexpr int kWorldSize = 2;
constexpr int kCallsPerIteration = 64;

/// @brief Runs `calls` collective invocations of `body` inside one world
/// and reports per-call time.
template <typename Body>
void run_world_benchmark(benchmark::State& state, Body&& body) {
    for (auto _: state) {
        xmpi::World::run(kWorldSize, [&] {
            for (int call = 0; call < kCallsPerIteration; ++call) {
                body();
            }
        });
    }
    state.SetItemsProcessed(
        state.iterations() * kCallsPerIteration * kWorldSize);
}

void allgatherv_handrolled(std::size_t count) {
    int size, rank;
    XMPI_Comm_size(XMPI_COMM_WORLD, &size);
    XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
    std::vector<double> const v(count, rank);
    std::vector<int> rc(static_cast<std::size_t>(size));
    std::vector<int> rd(static_cast<std::size_t>(size));
    int const mine = static_cast<int>(v.size());
    XMPI_Allgather(&mine, 1, XMPI_INT, rc.data(), 1, XMPI_INT, XMPI_COMM_WORLD);
    std::exclusive_scan(rc.begin(), rc.end(), rd.begin(), 0);
    std::vector<double> v_glob(static_cast<std::size_t>(rc.back() + rd.back()));
    XMPI_Allgatherv(
        v.data(), mine, XMPI_DOUBLE, v_glob.data(), rc.data(), rd.data(), XMPI_DOUBLE,
        XMPI_COMM_WORLD);
    benchmark::DoNotOptimize(v_glob.data());
}

void allgatherv_kamping(std::size_t count) {
    kamping::Communicator comm;
    std::vector<double> const v(count, comm.rank());
    auto v_glob = comm.allgatherv(kamping::send_buf(v));
    benchmark::DoNotOptimize(v_glob.data());
}

void BM_allgatherv_handrolled(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] { allgatherv_handrolled(count); });
}

void BM_allgatherv_kamping(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] { allgatherv_kamping(count); });
}

void BM_allgatherv_kamping_counts_given(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] {
        kamping::Communicator comm;
        std::vector<double> const v(count, comm.rank());
        std::vector<int> const rc(comm.size(), static_cast<int>(count));
        std::vector<double> v_glob(count * comm.size());
        comm.allgatherv(
            kamping::send_buf(v), kamping::recv_buf(v_glob), kamping::recv_counts(rc));
        benchmark::DoNotOptimize(v_glob.data());
    });
}

void BM_allreduce_handrolled(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] {
        std::vector<long> const v(count, 1);
        std::vector<long> out(count);
        XMPI_Allreduce(
            v.data(), out.data(), static_cast<int>(count), XMPI_LONG, XMPI_SUM,
            XMPI_COMM_WORLD);
        benchmark::DoNotOptimize(out.data());
    });
}

void BM_allreduce_kamping(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] {
        kamping::Communicator comm;
        std::vector<long> const v(count, 1);
        auto out = comm.allreduce(kamping::send_buf(v), kamping::op(std::plus<>{}));
        benchmark::DoNotOptimize(out.data());
    });
}

void BM_allreduce_chaos_armed(benchmark::State& state) {
    // Cost of the fault-injection hook on the hot path: a chaos engine is
    // installed but holds only a never-firing fault (probability zero, on a
    // call that is never made), so every XMPI entry pays the full armed-path
    // check — engine load plus trigger scan. The delta against
    // BM_allreduce_handrolled is the injection subsystem's overhead; with no
    // engine installed the hook is a single relaxed atomic load.
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    for (auto _: state) {
        xmpi::chaos::arm_next_world(xmpi::chaos::FaultPlan(1).kill_with_probability(
            0, xmpi::chaos::Call::barrier, 0.0));
        xmpi::World::run(kWorldSize, [&] {
            for (int call = 0; call < kCallsPerIteration; ++call) {
                std::vector<long> const v(count, 1);
                std::vector<long> out(count);
                XMPI_Allreduce(
                    v.data(), out.data(), static_cast<int>(count), XMPI_LONG, XMPI_SUM,
                    XMPI_COMM_WORLD);
                benchmark::DoNotOptimize(out.data());
            }
        });
    }
    (void)xmpi::chaos::take_fired_log();
    state.SetItemsProcessed(state.iterations() * kCallsPerIteration * kWorldSize);
}

void BM_alltoallv_handrolled(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] {
        int size, rank;
        XMPI_Comm_size(XMPI_COMM_WORLD, &size);
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        std::vector<int> sc(static_cast<std::size_t>(size), static_cast<int>(count));
        std::vector<int> sd(static_cast<std::size_t>(size));
        std::vector<int> rc(static_cast<std::size_t>(size));
        std::vector<int> rd(static_cast<std::size_t>(size));
        std::exclusive_scan(sc.begin(), sc.end(), sd.begin(), 0);
        std::vector<long> const send(count * static_cast<std::size_t>(size), rank);
        XMPI_Alltoall(sc.data(), 1, XMPI_INT, rc.data(), 1, XMPI_INT, XMPI_COMM_WORLD);
        std::exclusive_scan(rc.begin(), rc.end(), rd.begin(), 0);
        std::vector<long> recv(static_cast<std::size_t>(rd.back() + rc.back()));
        XMPI_Alltoallv(
            send.data(), sc.data(), sd.data(), XMPI_LONG, recv.data(), rc.data(), rd.data(),
            XMPI_LONG, XMPI_COMM_WORLD);
        benchmark::DoNotOptimize(recv.data());
    });
}

void BM_alltoallv_kamping(benchmark::State& state) {
    std::size_t const count = static_cast<std::size_t>(state.range(0));
    run_world_benchmark(state, [&] {
        kamping::Communicator comm;
        std::vector<long> const send(count * comm.size(), comm.rank());
        std::vector<int> const sc(comm.size(), static_cast<int>(count));
        auto recv = comm.alltoallv(kamping::send_buf(send), kamping::send_counts(sc));
        benchmark::DoNotOptimize(recv.data());
    });
}

void BM_send_recv_handrolled(benchmark::State& state) {
    run_world_benchmark(state, [&] {
        int rank;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        long value = rank;
        if (rank == 0) {
            XMPI_Send(&value, 1, XMPI_LONG, 1, 0, XMPI_COMM_WORLD);
        } else {
            XMPI_Recv(&value, 1, XMPI_LONG, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            benchmark::DoNotOptimize(value);
        }
    });
}

void BM_send_recv_kamping(benchmark::State& state) {
    run_world_benchmark(state, [&] {
        kamping::Communicator comm;
        if (comm.rank() == 0) {
            comm.send(kamping::send_buf({comm.rank()}), kamping::destination(1));
        } else {
            auto received = comm.recv<int>(kamping::source(0), kamping::recv_count(1));
            benchmark::DoNotOptimize(received.data());
        }
    });
}

BENCHMARK(BM_allgatherv_handrolled)->Arg(8)->Arg(1024)->Arg(65536);
BENCHMARK(BM_allgatherv_kamping)->Arg(8)->Arg(1024)->Arg(65536);
BENCHMARK(BM_allgatherv_kamping_counts_given)->Arg(8)->Arg(1024)->Arg(65536);
BENCHMARK(BM_allreduce_handrolled)->Arg(8)->Arg(4096);
BENCHMARK(BM_allreduce_kamping)->Arg(8)->Arg(4096);
BENCHMARK(BM_allreduce_chaos_armed)->Arg(8)->Arg(4096);
BENCHMARK(BM_alltoallv_handrolled)->Arg(8)->Arg(4096);
BENCHMARK(BM_alltoallv_kamping)->Arg(8)->Arg(4096);
BENCHMARK(BM_send_recv_handrolled);
BENCHMARK(BM_send_recv_kamping);

// ---------------------------------------------------------------------------
// Tracing-seam overhead check: allgatherv hand-rolled vs. KaMPIng with
// tracing off and on, each pair measured by bench::per_round_paired_cost
// in one 2-rank world and dumped to BENCH_overhead.json. The traced-off
// ratio is the cost of the call-plan pipeline plus one relaxed atomic load
// per operation — the paper's (near) zero-overhead claim, asserted with a
// generous tolerance because the ranks run as threads on a shared host.
// ---------------------------------------------------------------------------

constexpr std::size_t kPairedCount = 8;
constexpr int kPairedCalls = 256;
constexpr int kPairs = 15;

/// @brief Paired cost of hand-rolled (A) vs. KaMPIng (B) allgatherv, one
/// round per call, in a fresh 2-rank world.
bench::PairedCost measure_pair() {
    bench::PairedCost cost;
    xmpi::World::run_ranked(kWorldSize, [&](int rank) {
        auto const m = bench::per_round_paired_cost(
            kPairedCalls, [] { allgatherv_handrolled(kPairedCount); },
            [] { allgatherv_kamping(kPairedCount); }, kPairs);
        if (rank == 0) {
            cost = m;
        }
    });
    return cost;
}

/// @brief Per-call thread-CPU time of one rank, in nanoseconds.
double ns_per_call(bench::RoundCost const& cost) {
    return cost.cpu_usec * 1e3 / kWorldSize;
}

/// Traced-off vs. hand-rolled must stay within this factor (the asserted
/// "near zero": pipeline + one atomic load, measured on threads sharing a
/// core, so the bound is deliberately loose).
constexpr double kTracedOffTolerance = 2.0;

int run_overhead_gate() {
    kamping::tracing::disable();
    bench::PairedCost const off = measure_pair();
    kamping::tracing::enable();
    bench::PairedCost const on = measure_pair();
    kamping::tracing::disable();
    std::size_t const spans = xmpi::profile::take_spans().size();

    double const off_ratio = off.cpu_ratio();
    bool const ok = off_ratio <= kTracedOffTolerance;
    std::printf(
        "overhead gate: handrolled %.1f ns/call, kamping traced-off %.1f ns/call "
        "(x%.3f, tolerance x%.1f), traced-on %.1f ns/call (x%.3f, %zu spans) -> %s\n",
        ns_per_call(off.a), ns_per_call(off.b), off_ratio, kTracedOffTolerance,
        ns_per_call(on.b), on.cpu_ratio(), spans, ok ? "OK" : "FAIL");

    bool const written = bench::Json::object()
                             .set("benchmark", "overhead_micro")
                             .set("world_size", kWorldSize)
                             .set("op", "allgatherv")
                             .set("count", kPairedCount)
                             .set("calls_per_world", kPairedCalls)
                             .set("repetitions", kPairs)
                             .set("handrolled_ns_per_call", bench::Json(ns_per_call(off.a), 1))
                             .set("kamping_traced_off_ns_per_call",
                                  bench::Json(ns_per_call(off.b), 1))
                             .set("kamping_traced_on_ns_per_call",
                                  bench::Json(ns_per_call(on.b), 1))
                             .set("traced_off_ratio", bench::Json(off_ratio, 4))
                             .set("traced_on_ratio", bench::Json(on.cpu_ratio(), 4))
                             .set("traced_off_tolerance", bench::Json(kTracedOffTolerance, 1))
                             .set("traced_on_spans", spans)
                             .set("near_zero_overhead", ok)
                             .emit("overhead");
    return ok && written ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    int const gate = run_overhead_gate();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return gate;
}
