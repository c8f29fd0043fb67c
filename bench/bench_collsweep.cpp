/// @file bench_collsweep.cpp
/// @brief Measured collective-algorithm sweep (the autotuner harness).
///
/// CommBench-style grid: pattern (bcast / allreduce / allgather / alltoall)
/// x world size x payload (allreduce on a finer payload grid up to 64 KiB,
/// across the ring's crossover), measuring *every* registry candidate for each
/// cell by forcing it (tuning::coll().force_algorithm) over warmup + timed
/// iterations. The winner per cell is written to tuning_table.json in the
/// format xmpi::tuning::load_tuning_table() consumes (XMPI_TUNING_TABLE),
/// closing the autotuning loop: measure -> table -> selection.
///
/// Metric: rank-summed thread-CPU time per round (CLOCK_THREAD_CPUTIME_ID).
/// The harness machines are heavily oversubscribed (p threads on few cores),
/// where wall time of a synchronizing collective measures the scheduler, not
/// the algorithm; summed CPU counts the actual per-message software work,
/// which is exactly the "alpha" these algorithms trade against. Message
/// counts per round (from the PMPI-style counters) are recorded alongside as
/// a noise-free cross-check.
///
/// Results go to BENCH_collsweep.json; exit status enforces two claims:
///   1. autotuning is sound: with the emitted table loaded, the selection
///      for every measured cell resolves from the table to the measured
///      winner — never costlier than the model/preference pick,
///   2. hierarchy pays: two-level allreduce (XMPI_NODE_SIZE=4) sends
///      strictly fewer messages than flat recursive doubling at p = 16 for
///      small payloads (~p + (p/g)log2(p/g) against p*log2(p) — the
///      deterministic structural win that turns into latency on a real
///      network) AND stays within a CPU budget of the flat exchange
///      (best-of-retries; on this thread-emulated substrate the "wire" is a
///      memcpy, so the message-count advantage shows up as at-parity CPU,
///      not a CPU win — followers spin while leaders run the inter-node
///      phase, and a strict CPU comparison is a coin flip).
///
/// --verify-table=path skips measuring and only replays the sweep grid
/// through tuning::select() against an existing table (the CI smoke step
/// feeds the table emitted by a --quick run back through this mode).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "xmpi/xmpi.hpp"

namespace {

namespace tuning = xmpi::tuning;
using tuning::CollOp;

constexpr int kNodeSize = 4; ///< grouping under test (two nodes at p = 8, four at p = 16)
constexpr int kSmallCount = 16; ///< the smallest payload of every pattern (64 B)

struct Pattern {
    char const* name;
    CollOp op;
    /// Runs one round; buffers are preallocated to p*count ints each.
    void (*round)(int rank, int p, int count, std::vector<int>& a, std::vector<int>& b);
    std::vector<int> counts; ///< ints per block, ascending
};

void round_bcast(int, int, int count, std::vector<int>& a, std::vector<int>&) {
    XMPI_Bcast(a.data(), count, XMPI_INT, 0, XMPI_COMM_WORLD);
}
void round_allreduce(int, int, int count, std::vector<int>& a, std::vector<int>& b) {
    XMPI_Allreduce(a.data(), b.data(), count, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD);
}
void round_allgather(int, int, int count, std::vector<int>& a, std::vector<int>& b) {
    XMPI_Allgather(a.data(), count, XMPI_INT, b.data(), count, XMPI_INT, XMPI_COMM_WORLD);
}
void round_alltoall(int, int, int count, std::vector<int>& a, std::vector<int>& b) {
    XMPI_Alltoall(a.data(), count, XMPI_INT, b.data(), count, XMPI_INT, XMPI_COMM_WORLD);
}

/// 64 B and 16 KiB blocks; allreduce adds 4 KiB and 64 KiB payloads around
/// the ring's crossover (tuning::ring_allreduce_min_bytes).
Pattern const kPatterns[] = {
    {"bcast", CollOp::bcast, round_bcast, {16, 4096}},
    {"allreduce", CollOp::allreduce, round_allreduce, {16, 1024, 4096, 16384}},
    {"allgather", CollOp::allgather, round_allgather, {16, 4096}},
    {"alltoall", CollOp::alltoall, round_alltoall, {16, 4096}},
};

struct Measurement {
    std::string algorithm;
    double cpu_usec = 0.0;  ///< rank-summed thread-CPU per round
    double wall_usec = 0.0; ///< slowest-rank wall per round (context only)
    double msgs = 0.0;      ///< messages per round, all ranks
};

struct Cell {
    char const* pattern = "";
    std::vector<int> const* counts = nullptr; ///< the pattern's payload grid
    CollOp op = CollOp::count_;
    int p = 0;
    int count = 0;
    std::size_t bytes = 0;
    std::string default_pick; ///< model/preference selection (no table)
    std::vector<Measurement> measured;

    [[nodiscard]] Measurement const* find(std::string const& algorithm) const {
        for (auto const& m: measured) {
            if (m.algorithm == algorithm) {
                return &m;
            }
        }
        return nullptr;
    }
    [[nodiscard]] Measurement const& winner() const {
        std::size_t best = 0;
        for (std::size_t i = 1; i < measured.size(); ++i) {
            if (measured[i].cpu_usec < measured[best].cpu_usec) {
                best = i;
            }
        }
        return measured[best];
    }
};

/// @brief Measures one forced candidate: rank-summed CPU, slowest-rank wall,
/// and total messages per round.
Measurement measure_candidate(
    Pattern const& pattern, int p, int count, char const* algorithm, int warmup, int iters) {
    Measurement result;
    result.algorithm = algorithm;
    double cpu_total = 0.0;
    double wall_max = 0.0;
    std::uint64_t msgs_total = 0;
    std::mutex merge_mutex;

    tuning::coll().force_algorithm = algorithm;
    xmpi::World::run_ranked(p, [&](int rank) {
        std::vector<int> a(static_cast<std::size_t>(p) * static_cast<std::size_t>(count), rank);
        std::vector<int> b(a.size(), 0);
        for (int i = 0; i < warmup; ++i) {
            pattern.round(rank, p, count, a, b);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        std::uint64_t const msgs0 = xmpi::profile::my_snapshot().messages_sent;
        double const w0 = XMPI_Wtime();
        double const c0 = bench::thread_cpu_seconds();
        for (int i = 0; i < iters; ++i) {
            pattern.round(rank, p, count, a, b);
        }
        double const cpu = bench::thread_cpu_seconds() - c0;
        double const wall = XMPI_Wtime() - w0;
        std::uint64_t const msgs = xmpi::profile::my_snapshot().messages_sent - msgs0;
        std::lock_guard lock(merge_mutex);
        cpu_total += cpu;
        wall_max = std::max(wall_max, wall);
        msgs_total += msgs;
    });
    tuning::coll().force_algorithm = nullptr;

    result.cpu_usec = cpu_total * 1e6 / iters;
    result.wall_usec = wall_max * 1e6 / iters;
    result.msgs = static_cast<double>(msgs_total) / iters;
    return result;
}

tuning::SelectCtx ctx_of(int p, std::size_t bytes) {
    tuning::SelectCtx ctx;
    ctx.p = p;
    ctx.block_bytes = bytes;
    return ctx;
}

/// @brief Size-bucket boundary for the emitted table: each measured payload
/// covers up to the geometric midpoint towards the next one; the largest
/// gets the unbounded bucket (max_bytes = 0).
std::size_t bucket_bound(std::size_t bytes, std::vector<int> const& counts, std::size_t index) {
    if (index + 1 >= counts.size()) {
        return 0;
    }
    std::size_t const next = static_cast<std::size_t>(counts[index + 1]) * sizeof(int);
    std::size_t bound = 1;
    while (bound * bound < bytes * next) {
        bound *= 2;
    }
    return bound;
}

int verify_table(char const* path, std::vector<int> const& ps) {
    tuning::coll().node_size = kNodeSize;
    if (!tuning::load_tuning_table(path)) {
        std::fprintf(stderr, "FAIL: could not load tuning table %s\n", path);
        return 1;
    }
    int failures = 0;
    std::size_t verified = 0;
    for (auto const& pattern: kPatterns) {
        for (int p: ps) {
            for (int count: pattern.counts) {
                ++verified;
                std::size_t const bytes = static_cast<std::size_t>(count) * sizeof(int);
                auto const ctx = ctx_of(p, bytes);
                auto const selection = tuning::select(pattern.op, ctx);
                char const* cell = tuning::table_algorithm(pattern.op, p, bytes);
                if (cell == nullptr) {
                    std::fprintf(
                        stderr, "FAIL: no table cell covers %s p=%d bytes=%zu\n", pattern.name, p,
                        bytes);
                    failures += 1;
                } else if (!selection.from_table || std::strcmp(selection.algorithm, cell) != 0) {
                    std::fprintf(
                        stderr,
                        "FAIL: %s p=%d bytes=%zu selected %s (from_table=%d), table says %s\n",
                        pattern.name, p, bytes, selection.algorithm, selection.from_table, cell);
                    failures += 1;
                } else {
                    std::printf(
                        "verified %-10s p=%-3d bytes=%-6zu -> %s (from table)\n", pattern.name, p,
                        bytes, selection.algorithm);
                }
            }
        }
    }
    if (failures == 0) {
        std::printf("tuning table %s drives selection for all %zu cells\n", path, verified);
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    bool const quick = bench::Options::parse(argc, argv).quick;
    char const* verify_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--verify-table=", 15) == 0) {
            verify_path = argv[i] + 15;
        }
    }
    // p = 3 is the non-power-of-two size where recursive doubling's fold
    // and the ring differ most.
    std::vector<int> const ps = {3, 4, 16};
    if (verify_path != nullptr) {
        return verify_table(verify_path, ps);
    }
    int const warmup = quick ? 2 : 5;
    int const iters = quick ? 10 : 40;

    // The sweep runs with the node grouping active, so the hierarchical
    // candidates appear wherever they are applicable (p > node size).
    tuning::coll().node_size = kNodeSize;

    std::vector<Cell> cells;
    for (auto const& pattern: kPatterns) {
        for (int p: ps) {
            for (int count: pattern.counts) {
                Cell cell;
                cell.pattern = pattern.name;
                cell.counts = &pattern.counts;
                cell.op = pattern.op;
                cell.p = p;
                cell.count = count;
                cell.bytes = static_cast<std::size_t>(count) * sizeof(int);
                auto const ctx = ctx_of(p, cell.bytes);
                cell.default_pick = tuning::select(pattern.op, ctx).algorithm;
                for (char const* algorithm: tuning::candidates(pattern.op, ctx)) {
                    cell.measured.push_back(
                        measure_candidate(pattern, p, count, algorithm, warmup, iters));
                }
                auto const& best = cell.winner();
                std::printf(
                    "%-10s p=%-3d bytes=%-6zu winner=%-24s (%.1f us CPU/round, %.0f msgs)\n",
                    pattern.name, p, cell.bytes, best.algorithm.c_str(), best.cpu_usec,
                    best.msgs);
                cells.push_back(std::move(cell));
            }
        }
    }

    // Gate 2 retries: the message-count half of the gate is deterministic,
    // but the CPU-budget half is a noisy measurement on an oversubscribed
    // host; re-measure the pair rather than fail on one draw (a real
    // regression stays over budget across attempts).
    int gate2_attempts = 1;
    auto const hier_cell = [&]() -> Cell* {
        for (auto& cell: cells) {
            if (cell.op == CollOp::allreduce && cell.p == 16 && cell.count == kSmallCount) {
                return &cell;
            }
        }
        return nullptr;
    };
    Cell* const allreduce16 = hier_cell();
    // The hierarchy must send strictly fewer messages (structural, exact) and
    // cost no more than kHierCpuSlack x the flat exchange's CPU (the follower
    // ranks spin while the leaders run the inter-node phase, so at-parity CPU
    // is the honest expectation here — the latency win needs a real wire).
    constexpr double kHierCpuSlack = 1.25;
    auto const hier_fewer_msgs = [&]() {
        auto const* hier = allreduce16->find("hier_recursive_doubling");
        auto const* flat = allreduce16->find("recursive_doubling");
        return hier != nullptr && flat != nullptr && hier->msgs < flat->msgs;
    };
    auto const hier_within_budget = [&]() {
        auto const* hier = allreduce16->find("hier_recursive_doubling");
        auto const* flat = allreduce16->find("recursive_doubling");
        return hier != nullptr && flat != nullptr
               && hier->cpu_usec <= flat->cpu_usec * kHierCpuSlack;
    };
    auto const* allreduce_pattern = &kPatterns[1];
    for (int retry = 0; retry < 4 && allreduce16 != nullptr && !hier_within_budget(); ++retry) {
        for (auto& m: allreduce16->measured) {
            if (m.algorithm == "hier_recursive_doubling" || m.algorithm == "recursive_doubling") {
                auto const remeasured = measure_candidate(
                    *allreduce_pattern, 16, kSmallCount, m.algorithm.c_str(), warmup, iters);
                m.cpu_usec = std::min(m.cpu_usec, remeasured.cpu_usec);
            }
        }
        gate2_attempts += 1;
    }

    // Emit the measured table: winner per (op, p, size bucket).
    auto table_cells = bench::Json::array();
    for (auto const& cell: cells) {
        auto const& counts = *cell.counts;
        std::size_t const index = static_cast<std::size_t>(
            std::find(counts.begin(), counts.end(), cell.count) - counts.begin());
        table_cells.push(bench::Json::object()
                             .set("op", tuning::coll_op_name(cell.op))
                             .set("p", cell.p)
                             .set("max_bytes", bucket_bound(cell.bytes, counts, index))
                             .set("algorithm", cell.winner().algorithm));
    }
    bool ok = bench::Json::object()
                  .set("version", 1)
                  .set("cells", std::move(table_cells))
                  .save("tuning_table.json");

    // Gate 1: feed the emitted table back through selection — every measured
    // cell must resolve from the table to an algorithm no costlier than the
    // model/preference pick (the autotuner must never make things worse).
    if (!tuning::load_tuning_table("tuning_table.json")) {
        std::fprintf(stderr, "FAIL: emitted tuning_table.json does not load\n");
        ok = false;
    }
    for (auto const& cell: cells) {
        auto const selection = tuning::select(cell.op, ctx_of(cell.p, cell.bytes));
        auto const* picked = cell.find(selection.algorithm);
        auto const* fallback = cell.find(cell.default_pick);
        if (!selection.from_table || picked == nullptr) {
            std::fprintf(
                stderr, "FAIL: %s p=%d bytes=%zu not table-driven (selected %s)\n", cell.pattern,
                cell.p, cell.bytes, selection.algorithm);
            ok = false;
        } else if (fallback != nullptr && picked->cpu_usec > fallback->cpu_usec) {
            std::fprintf(
                stderr,
                "FAIL: %s p=%d bytes=%zu table pick %s (%.1f us) regresses vs model pick %s "
                "(%.1f us)\n",
                cell.pattern, cell.p, cell.bytes, picked->algorithm.c_str(), picked->cpu_usec,
                cell.default_pick.c_str(), fallback->cpu_usec);
            ok = false;
        }
    }
    // Gate 2: the hierarchy claim.
    double hier_cpu = 0.0;
    double flat_cpu = 0.0;
    double hier_msgs = 0.0;
    double flat_msgs = 0.0;
    if (allreduce16 == nullptr || allreduce16->find("hier_recursive_doubling") == nullptr) {
        std::fprintf(stderr, "FAIL: hierarchical allreduce candidate missing at p=16\n");
        ok = false;
    } else {
        hier_cpu = allreduce16->find("hier_recursive_doubling")->cpu_usec;
        flat_cpu = allreduce16->find("recursive_doubling")->cpu_usec;
        hier_msgs = allreduce16->find("hier_recursive_doubling")->msgs;
        flat_msgs = allreduce16->find("recursive_doubling")->msgs;
        if (!hier_fewer_msgs()) {
            std::fprintf(
                stderr,
                "FAIL: hier allreduce sends %.0f msgs/round vs flat recursive doubling's %.0f "
                "at p=16, node_size=%d — the structural advantage is gone\n",
                hier_msgs, flat_msgs, kNodeSize);
            ok = false;
        }
        if (!hier_within_budget()) {
            std::fprintf(
                stderr,
                "FAIL: hier allreduce (%.1f us CPU/round) over the %.2fx budget vs flat "
                "recursive doubling (%.1f us) at p=16, node_size=%d, %zu-byte payload, "
                "%d attempts\n",
                hier_cpu, kHierCpuSlack, flat_cpu, kNodeSize,
                static_cast<std::size_t>(kSmallCount) * sizeof(int), gate2_attempts);
            ok = false;
        }
    }

    auto sweep = bench::Json::array();
    for (auto const& cell: cells) {
        auto measurements = bench::Json::array();
        for (auto const& m: cell.measured) {
            measurements.push(bench::Json::object()
                                  .set("algorithm", m.algorithm)
                                  .set("cpu_usec", bench::Json(m.cpu_usec, 2))
                                  .set("wall_usec", bench::Json(m.wall_usec, 2))
                                  .set("msgs", bench::Json(m.msgs, 1)));
        }
        sweep.push(bench::Json::object()
                       .set("op", tuning::coll_op_name(cell.op))
                       .set("p", cell.p)
                       .set("bytes", cell.bytes)
                       .set("default_pick", cell.default_pick)
                       .set("winner", cell.winner().algorithm)
                       .set("measurements", std::move(measurements)));
    }
    ok = bench::Json::object()
             .set("benchmark", "collsweep")
             .set("node_size", kNodeSize)
             .set("iters", iters)
             .set("cells", std::move(sweep))
             .set("gate", bench::Json::object()
                              .set("table_driven_cells", cells.size())
                              .set("hier_msgs", bench::Json(hier_msgs, 1))
                              .set("flat_msgs", bench::Json(flat_msgs, 1))
                              .set("hier_cpu_usec", bench::Json(hier_cpu, 2))
                              .set("flat_cpu_usec", bench::Json(flat_cpu, 2))
                              .set("hier_cpu_budget", bench::Json(kHierCpuSlack, 2))
                              .set("hier_gate_attempts", gate2_attempts)
                              .set("passed", ok))
             .emit("collsweep")
         && ok;
    if (ok) {
        std::printf(
            "all %zu cells table-driven and no table pick regresses; hier allreduce sends "
            "fewer msgs than flat at p=16 within the CPU budget\n",
            cells.size());
    }
    return ok ? 0 : 1;
}
