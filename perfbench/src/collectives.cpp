/// @file collectives.cpp
/// @brief The collectives workload: 3 ranks plus one progress-engine worker.
///
/// Every round runs a seeded mix, in seeded order, of allreduce (8 B and
/// 64 KiB), bcast, allgatherv without recv_counts (forcing the count
/// exchange), alltoallv with counts supplied, one persistent allreduce plan
/// start/wait and one iallreduce + wait. Each round runs once through the
/// kamping bindings and once as its hand-written XMPI twin (ABAB pairs);
/// every result is compared against a closed-form reference after the
/// round. p = 3 exercises the non-power-of-two (rem-folding) algorithms.
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "kamping/kamping.hpp"
#include "xmpi/progress.hpp"

namespace perfbench {
namespace {

using Word = std::uint64_t;
constexpr int kRanks = 3;
constexpr Word kTriangle = kRanks * (kRanks + 1) / 2; // sum of (rank + 1)
constexpr std::size_t kSpecs = 64;
constexpr int kLargeWords = 65536 / sizeof(Word);
constexpr int kPlanWords = 64;
constexpr int kIallreduceWords = 64;
/// Rounds per layer in tiny mode (plus one warm-up pair).
constexpr std::uint64_t kTinyRounds = 4;

enum Op : int { allreduce_8B, allreduce_64KiB, bcast, allgatherv, alltoallv, allreduce_plan, iallreduce, kNumOps };
constexpr char const* kOpNames[kNumOps] = {
    "allreduce_8B", "allreduce_64KiB", "bcast", "allgatherv", "alltoallv", "allreduce_plan", "iallreduce"};

struct RoundSpec {
    std::array<int, kNumOps> order{};
    Word key = 0;
    int bcast_root = 0;
    int bcast_words = 1;
    std::array<int, kRanks> gather_words{};
    std::array<std::array<int, kRanks>, kRanks> a2a_words{}; ///< [source][destination]
};

std::vector<RoundSpec> round_specs(std::uint64_t seed) {
    Rng rng(seed * 104729 + 3);
    std::vector<RoundSpec> specs(kSpecs);
    for (auto& spec: specs) {
        std::iota(spec.order.begin(), spec.order.end(), 0);
        for (int i = kNumOps - 1; i > 0; --i) {
            auto const j = rng.uniform(0, static_cast<std::uint64_t>(i));
            std::swap(spec.order[static_cast<std::size_t>(i)], spec.order[j]);
        }
        spec.key = rng.next() >> 8;
        spec.bcast_root = static_cast<int>(rng.uniform(0, kRanks - 1));
        spec.bcast_words = static_cast<int>(rng.uniform(1, 2048));
        for (auto& w: spec.gather_words) {
            w = static_cast<int>(rng.uniform(1, 512));
        }
        for (auto& row: spec.a2a_words) {
            for (auto& w: row) {
                w = static_cast<int>(rng.uniform(1, 256));
            }
        }
    }
    return specs;
}

/// @name Closed-form inputs; the references follow from them
/// @{
Word gather_value(Word key, int rank, int j) {
    return key + static_cast<Word>(rank) * 1000003 + static_cast<Word>(j);
}
Word a2a_value(Word key, int source, int destination, int j) {
    return key ^ (static_cast<Word>(source) << 40 | static_cast<Word>(destination) << 32 |
                  static_cast<Word>(j));
}
/// @}

auto make_allreduce_plan(kamping::Communicator const& comm) {
    return comm.allreduce_plan(
        kamping::send_recv_buf(std::vector<Word>(kPlanWords)), kamping::op(std::plus<>{}));
}
using AllreducePlan = decltype(make_allreduce_plan(std::declval<kamping::Communicator const&>()));

/// Buffers of one round; the kamping and the raw twin each own a set.
struct Buffers {
    std::vector<Word> small_in = std::vector<Word>(1), small_out = std::vector<Word>(1);
    std::vector<Word> large_in = std::vector<Word>(kLargeWords), large_out = std::vector<Word>(kLargeWords);
    std::vector<Word> bcast;
    std::vector<Word> gather_in, gather_out;
    std::vector<Word> a2a_in, a2a_out;
    std::vector<int> a2a_send_counts = std::vector<int>(kRanks), a2a_recv_counts = std::vector<int>(kRanks);
    std::vector<Word> ivec = std::vector<Word>(kIallreduceWords);
};

struct CollState {
    kamping::Communicator comm;
    int rank;
    AllreducePlan plan;
    XMPI_Request raw_plan = XMPI_REQUEST_NULL;
    std::vector<Word> raw_plan_data = std::vector<Word>(kPlanWords);
    Buffers buffers[2]; ///< [layer]

    /// Plans are initialised here, so their cost counts as set-up.
    CollState(int rank_, Report& report) : rank(rank_), plan(make_allreduce_plan(comm)) {
        report.check_code(
            XMPI_Allreduce_init(XMPI_IN_PLACE, raw_plan_data.data(), kPlanWords, XMPI_UNSIGNED_LONG, XMPI_SUM,
                                comm.mpi_communicator(), &raw_plan),
            "XMPI_Allreduce_init");
    }
    CollState(CollState const&) = delete;
    CollState& operator=(CollState const&) = delete;
    ~CollState() {
        if (raw_plan != XMPI_REQUEST_NULL) {
            XMPI_Request_free(&raw_plan);
        }
    }
};

/// Fills a round's inputs (untimed).
void prepare(CollState& s, RoundSpec const& spec, Buffers& b, Word* plan_data) {
    int const r = s.rank;
    Word const weight = static_cast<Word>(r + 1);
    b.small_in[0] = weight * spec.key;
    for (int i = 0; i < kLargeWords; ++i) {
        b.large_in[static_cast<std::size_t>(i)] = weight * (spec.key + static_cast<Word>(i));
    }
    b.bcast.assign(static_cast<std::size_t>(spec.bcast_words), 0);
    if (r == spec.bcast_root) {
        for (int i = 0; i < spec.bcast_words; ++i) {
            b.bcast[static_cast<std::size_t>(i)] = spec.key * 31 + static_cast<Word>(i);
        }
    }
    b.gather_in.resize(static_cast<std::size_t>(spec.gather_words[static_cast<std::size_t>(r)]));
    for (std::size_t j = 0; j < b.gather_in.size(); ++j) {
        b.gather_in[j] = gather_value(spec.key, r, static_cast<int>(j));
    }
    b.a2a_in.clear();
    for (int d = 0; d < kRanks; ++d) {
        int const n = spec.a2a_words[static_cast<std::size_t>(r)][static_cast<std::size_t>(d)];
        b.a2a_send_counts[static_cast<std::size_t>(d)] = n;
        b.a2a_recv_counts[static_cast<std::size_t>(d)] =
            spec.a2a_words[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)];
        for (int j = 0; j < n; ++j) {
            b.a2a_in.push_back(a2a_value(spec.key, r, d, j));
        }
    }
    for (int i = 0; i < kPlanWords; ++i) {
        plan_data[i] = weight * (spec.key + 5 + static_cast<Word>(i));
    }
    b.ivec.resize(kIallreduceWords);
    for (int i = 0; i < kIallreduceWords; ++i) {
        b.ivec[static_cast<std::size_t>(i)] = weight * (spec.key + 7 + static_cast<Word>(i));
    }
}

/// Compares a round's outputs with the closed-form references (untimed).
void check(
    Context& ctx, int rank, RoundSpec const& spec, Buffers const& b, Word const* plan_data,
    char const* layer) {
    int failures = 0;
    failures += b.small_out[0] != kTriangle * spec.key;
    for (int i = 0; i < kLargeWords; ++i) {
        failures += b.large_out[static_cast<std::size_t>(i)] != kTriangle * (spec.key + static_cast<Word>(i));
    }
    for (int i = 0; i < spec.bcast_words; ++i) {
        failures += b.bcast[static_cast<std::size_t>(i)] != spec.key * 31 + static_cast<Word>(i);
    }
    std::size_t pos = 0;
    for (int src = 0; src < kRanks; ++src) {
        for (int j = 0; j < spec.gather_words[static_cast<std::size_t>(src)]; ++j, ++pos) {
            failures += pos >= b.gather_out.size() || b.gather_out[pos] != gather_value(spec.key, src, j);
        }
    }
    failures += pos != b.gather_out.size();
    pos = 0;
    for (int src = 0; src < kRanks; ++src) {
        int const n = spec.a2a_words[static_cast<std::size_t>(src)][static_cast<std::size_t>(rank)];
        for (int j = 0; j < n; ++j, ++pos) {
            failures += pos >= b.a2a_out.size() || b.a2a_out[pos] != a2a_value(spec.key, src, rank, j);
        }
    }
    failures += pos != b.a2a_out.size();
    for (int i = 0; i < kPlanWords; ++i) {
        failures += plan_data[i] != kTriangle * (spec.key + 5 + static_cast<Word>(i));
    }
    for (int i = 0; i < kIallreduceWords; ++i) {
        failures += b.ivec[static_cast<std::size_t>(i)] != kTriangle * (spec.key + 7 + static_cast<Word>(i));
    }
    if (failures != 0) {
        ctx.report.fail(std::string("collectives: ") + layer + " result differs from its reference");
    }
}

/// @brief One collective of a round through the kamping bindings. @return
/// the time start() returned for the persistent plan, else 0.
double kamping_op(CollState& s, Buffers& b, RoundSpec const& spec, int op) {
    switch (op) {
        case allreduce_8B:
            s.comm.allreduce(
                kamping::send_buf(b.small_in), kamping::recv_buf(b.small_out),
                kamping::op(std::plus<>{}));
            break;
        case allreduce_64KiB:
            s.comm.allreduce(
                kamping::send_buf(b.large_in), kamping::recv_buf(b.large_out),
                kamping::op(std::plus<>{}));
            break;
        case bcast:
            s.comm.bcast(
                kamping::send_recv_buf(b.bcast), kamping::root(spec.bcast_root),
                kamping::recv_count(spec.bcast_words));
            break;
        case allgatherv:
            b.gather_out = s.comm.allgatherv(kamping::send_buf(b.gather_in));
            break;
        case alltoallv:
            b.a2a_out = s.comm.alltoallv(
                kamping::send_buf(b.a2a_in), kamping::send_counts(b.a2a_send_counts),
                kamping::recv_counts(b.a2a_recv_counts));
            break;
        case allreduce_plan: {
            s.plan.start();
            double const started = wall_s();
            s.plan.wait();
            return started;
        }
        case iallreduce: {
            auto pending = s.comm.iallreduce(
                kamping::send_recv_buf(std::move(b.ivec)), kamping::op(std::plus<>{}));
            b.ivec = pending.wait();
            break;
        }
        default:
            break;
    }
    return 0.0;
}

/// @brief The same collective as hand-written XMPI code: it exchanges
/// counts and computes displacements itself where kamping does.
double raw_op(CollState& s, Buffers& b, RoundSpec const& spec, int op, Report& report) {
    XMPI_Comm const comm = s.comm.mpi_communicator();
    XMPI_Datatype const word = XMPI_UNSIGNED_LONG;
    switch (op) {
        case allreduce_8B:
            report.check_code(
                XMPI_Allreduce(b.small_in.data(), b.small_out.data(), 1, word, XMPI_SUM, comm),
                "XMPI_Allreduce");
            break;
        case allreduce_64KiB:
            report.check_code(
                XMPI_Allreduce(
                    b.large_in.data(), b.large_out.data(), kLargeWords, word, XMPI_SUM, comm),
                "XMPI_Allreduce");
            break;
        case bcast:
            report.check_code(
                XMPI_Bcast(b.bcast.data(), spec.bcast_words, word, spec.bcast_root, comm),
                "XMPI_Bcast");
            break;
        case allgatherv: {
            int const mine = static_cast<int>(b.gather_in.size());
            std::vector<int> counts(kRanks);
            report.check_code(
                XMPI_Allgather(&mine, 1, XMPI_INT, counts.data(), 1, XMPI_INT, comm),
                "XMPI_Allgather");
            std::vector<int> displs(kRanks, 0);
            std::exclusive_scan(counts.begin(), counts.end(), displs.begin(), 0);
            b.gather_out.resize(static_cast<std::size_t>(displs.back() + counts.back()));
            report.check_code(
                XMPI_Allgatherv(
                    b.gather_in.data(), mine, word, b.gather_out.data(), counts.data(),
                    displs.data(), word, comm),
                "XMPI_Allgatherv");
            break;
        }
        case alltoallv: {
            auto const& send_counts = b.a2a_send_counts;
            auto const& recv_counts = b.a2a_recv_counts;
            std::vector<int> sdispls(kRanks, 0);
            std::vector<int> rdispls(kRanks, 0);
            std::exclusive_scan(send_counts.begin(), send_counts.end(), sdispls.begin(), 0);
            std::exclusive_scan(recv_counts.begin(), recv_counts.end(), rdispls.begin(), 0);
            b.a2a_out.resize(static_cast<std::size_t>(rdispls.back() + recv_counts.back()));
            report.check_code(
                XMPI_Alltoallv(
                    b.a2a_in.data(), send_counts.data(), sdispls.data(), word, b.a2a_out.data(),
                    recv_counts.data(), rdispls.data(), word, comm),
                "XMPI_Alltoallv");
            break;
        }
        case allreduce_plan: {
            report.check_code(XMPI_Start(&s.raw_plan), "XMPI_Start");
            double const started = wall_s();
            report.check_code(XMPI_Wait(&s.raw_plan, XMPI_STATUS_IGNORE), "XMPI_Wait");
            return started;
        }
        case iallreduce: {
            XMPI_Request request = XMPI_REQUEST_NULL;
            report.check_code(
                XMPI_Iallreduce(
                    XMPI_IN_PLACE, b.ivec.data(), kIallreduceWords, word, XMPI_SUM, comm,
                    &request),
                "XMPI_Iallreduce");
            report.check_code(XMPI_Wait(&request, XMPI_STATUS_IGNORE), "XMPI_Wait");
            break;
        }
        default:
            break;
    }
    return 0.0;
}

/// Samples rank 0 takes in one pass.
struct PassSamples {
    std::vector<double> round_s[2];
    std::vector<double> op_s[2][kNumOps];
    std::vector<double> plan_start_s[2];
    std::vector<double> allgatherv_counts_s; ///< kamping allgatherv with recv_counts
    std::vector<double> pair_ratio;
    std::vector<double> queue_s;             ///< engine queue waits, from xmpi spans
    std::map<std::string, std::uint64_t> algorithms;
};

} // namespace

void run_collectives(Context& ctx) {
    Options const& options = ctx.options;
    // One worker: with 3 rank threads, at most 4 threads are runnable.
    xmpi::progress::configure(xmpi::progress::Config{1, 1024});
    // Start the worker from an unbound thread so it is not confined to the
    // CPU of the rank that happens to submit first.
    xmpi::World::run(1, [] {
        int value = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        XMPI_Iallreduce(XMPI_IN_PLACE, &value, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request);
        XMPI_Wait(&request, XMPI_STATUS_IGNORE);
    });

    int const passes = options.trace ? 2 : 1;
    auto const npasses = static_cast<std::size_t>(passes);
    std::vector<RoundSpec> const specs = round_specs(options.seed);
    std::vector<PassSamples> samples(npasses);
    std::vector<PhaseCounters> pass_counters(npasses, PhaseCounters(kRanks));
    std::vector<std::uint64_t> round_messages(kRanks, 0); ///< kamping rounds of pass 0, per rank
    std::vector<double> round_cpu(kRanks, 0.0);           ///< pass 0, both layers, per rank
    std::vector<std::uint64_t> rounds(npasses, 0);

    auto setup = [&](int rank) { return CollState(rank, ctx.report); };

    auto measure = [&](int rank, CollState& s) {
        XMPI_Comm const comm = s.comm.mpi_communicator();
        auto& report = ctx.report;
        auto const r = static_cast<std::size_t>(rank);
        for (int pass = 0; pass < passes; ++pass) {
            bool const traced = pass == 1;
            auto const p = static_cast<std::size_t>(pass);
            auto& out = samples[p];
            if (rank == 0) {
                xmpi::profile::set_tracing_enabled(traced);
                ctx.spans.set_enabled(traced);
            }
            report.check_code(XMPI_Barrier(comm), "XMPI_Barrier");
            pass_counters[p].begin(rank);
            Budget const budget(options, options.trace ? 0.5 : 1.0, kTinyRounds + 1);
            for (std::uint64_t round = 0;; ++round) {
                // Rank 0's budget decides; the allreduce also aligns the ranks.
                int go = rank == 0 && budget.more(round) ? 1 : 0;
                report.check_code(
                    XMPI_Allreduce(XMPI_IN_PLACE, &go, 1, XMPI_INT, XMPI_MAX, comm),
                    "XMPI_Allreduce");
                if (go == 0) {
                    break;
                }
                RoundSpec const& spec = specs[round % kSpecs];
                bool const record = round > 0; // the first pair warms up
                double round_time[2] = {0.0, 0.0};
                for (int layer = 0; layer < 2; ++layer) {
                    char const* layer_name = layer == 0 ? "kamping" : "xmpi";
                    Buffers& b = s.buffers[layer];
                    Word* plan_data = layer == 0 ? s.plan.data() : s.raw_plan_data.data();
                    prepare(s, spec, b, plan_data);
                    if (layer == 1) {
                        report.check_code(XMPI_Barrier(comm), "XMPI_Barrier");
                    }
                    auto const before = Counters::of_rank(rank);
                    double const cpu0 = thread_cpu_s();
                    double const round0 = wall_s();
                    for (int op: spec.order) {
                        double const t0 = wall_s();
                        double const started =
                            layer == 0 ? kamping_op(s, b, spec, op) : raw_op(s, b, spec, op, report);
                        double const t1 = wall_s();
                        ctx.spans.add(rank, layer_name, kOpNames[op], t0, t1);
                        if (rank == 0 && record) {
                            out.op_s[layer][op].push_back(t1 - t0);
                            if (op == allreduce_plan) {
                                out.plan_start_s[layer].push_back(started - t0);
                            }
                        }
                    }
                    round_time[layer] = wall_s() - round0;
                    double const cpu = thread_cpu_s() - cpu0;
                    auto const delta = Counters::of_rank(rank) - before;
                    report.attempt(kNumOps);
                    if (!traced) {
                        round_cpu[r] += cpu;
                        round_messages[r] += layer == 0 ? delta[Counters::messages] : 0;
                    }
                    check(ctx, rank, spec, b, plan_data, layer_name);
                }
                if (traced) {
                    // kamping allgatherv with the counts supplied: the count
                    // exchange's cost is the difference to the round's one.
                    Buffers& b = s.buffers[0];
                    std::vector<int> counts(spec.gather_words.begin(), spec.gather_words.end());
                    report.check_code(XMPI_Barrier(comm), "XMPI_Barrier");
                    double const t0 = wall_s();
                    b.gather_out =
                        s.comm.allgatherv(kamping::send_buf(b.gather_in), kamping::recv_counts(counts));
                    double const t1 = wall_s();
                    if (rank == 0 && record) {
                        out.allgatherv_counts_s.push_back(t1 - t0);
                    }
                }
                if (rank == 0) {
                    ++rounds[p];
                    if (record) {
                        out.round_s[0].push_back(round_time[0]);
                        out.round_s[1].push_back(round_time[1]);
                        out.pair_ratio.push_back(ratio(round_time[0], round_time[1]));
                    }
                    if (traced) {
                        auto const spans = xmpi::profile::take_spans();
                        for (auto const& span: spans) {
                            if (span.queue_s > 0.0) {
                                out.queue_s.push_back(span.queue_s);
                            }
                            if (span.algorithm[0] != '\0') {
                                ++out.algorithms[std::string(span.op) + "." + span.algorithm];
                            }
                        }
                        ctx.spans.add_profile_spans(spans);
                    }
                }
            }
            pass_counters[p].end(rank);
        }
        if (rank == 0) {
            xmpi::profile::set_tracing_enabled(false);
            ctx.spans.set_enabled(false);
        }
    };

    run_worlds(ctx, kRanks, setup, measure);
    ctx.spans.add_profile_spans(xmpi::profile::take_spans());

    Report& report = ctx.report;
    auto const& untraced = samples[0];
    std::size_t const timed = untraced.round_s[0].size();
    double const round_us = median(untraced.round_s[0]) * 1e6;
    report.set("latency_us_p50", round_us, "us", timed);
    report.set("coll_round_us_p50", round_us, "us", timed);
    report.set("coll_round_us_p99", percentile(untraced.round_s[0], 0.99) * 1e6, "us", timed);
    double busy_s = 0.0;
    for (auto const& layer: untraced.round_s) {
        for (double t: layer) {
            busy_s += t;
        }
    }
    std::size_t const timed_ops = 2 * timed * kNumOps;
    report.set("ops_per_s", ratio(static_cast<double>(timed_ops), busy_s), "1/s", timed_ops);
    double cpu_s = 0.0;
    for (double cpu: round_cpu) {
        cpu_s += cpu;
    }
    // All rounds of the pass, warm-up included, on every rank.
    std::uint64_t const all_ops = rounds[0] * 2 * kNumOps;
    report.set("cpu_ns_per_op", ratio(cpu_s, static_cast<double>(all_ops)) * 1e9, "ns", all_ops);
    report.set("binding_overhead", median(untraced.pair_ratio), "ratio", untraced.pair_ratio.size());
    std::uint64_t messages = 0;
    for (auto m: round_messages) {
        messages += m;
    }
    report.exact("coll.messages", messages);

    if (!options.trace) {
        return;
    }
    auto const& traced = samples[1];
    auto const per_round = ratio(static_cast<double>(messages), static_cast<double>(rounds[0]));
    report.set("coll.msgs_per_round", per_round, "msgs", rounds[0]);
    for (int op = 0; op < kNumOps; ++op) {
        auto const& kamping_s = untraced.op_s[0][op];
        auto const& raw_s = untraced.op_s[1][op];
        double const overhead_ns = (median(kamping_s) - median(raw_s)) * 1e9;
        report.set(std::string("kamping.coll_overhead_ns.") + kOpNames[op], overhead_ns, "ns", timed);
        if (op != allreduce_plan && op != iallreduce) {
            report.set(std::string("coll.") + kOpNames[op] + "_us", median(raw_s) * 1e6, "us", timed);
        }
    }
    double const exchange_s = median(traced.op_s[0][allgatherv]) - median(traced.allgatherv_counts_s);
    report.set("kamping.count_exchange_us", exchange_s * 1e6, "us", traced.allgatherv_counts_s.size());
    report.set("kamping.plan_start_ns", median(untraced.plan_start_s[0]) * 1e9, "ns", timed);
    report.set("xmpi.start_ns", median(untraced.plan_start_s[1]) * 1e9, "ns", timed);
    report.set("engine.iallreduce_us", median(untraced.op_s[1][iallreduce]) * 1e6, "us", timed);
    report.set("plan.allreduce_round_us", median(untraced.op_s[1][allreduce_plan]) * 1e6, "us", timed);
    report.set("engine.queue_s_p50", median(traced.queue_s), "s", traced.queue_s.size());
    Counters const c = pass_counters[0].total();
    auto const per_task = [&](Counters::Field field) {
        return ratio(static_cast<double>(c[field]), static_cast<double>(c[Counters::engine_tasks]));
    };
    std::uint64_t const tasks = c[Counters::engine_tasks];
    report.set("engine.inline_fallbacks", per_task(Counters::engine_inline), "1/task", tasks);
    report.set("engine.caller_steals", per_task(Counters::engine_steals), "1/task", tasks);
    report_transport(report, c);
    std::uint64_t noted = 0;
    for (auto const& [name, count]: traced.algorithms) {
        noted += count;
    }
    for (auto const& [name, count]: traced.algorithms) {
        double const share = ratio(static_cast<double>(count), static_cast<double>(noted));
        report.set("coll.algorithm_share." + name, share, "frac", count);
    }
    double const traced_us = median(traced.round_s[0]) * 1e6;
    report.set("trace.overhead", ratio(traced_us, round_us), "ratio", traced.round_s[0].size());
}

} // namespace perfbench
