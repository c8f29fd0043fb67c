/// @file p2p.cpp
/// @brief The point-to-point workloads.
///
/// p2p_pingpong: 2 ranks, one message in flight. Rank 0 drives blocks of
/// round trips over three seeded size bands (small 8-256 B: the coalescing
/// ring path; mid 4-16 KiB: packed eager messages and the payload pool;
/// large 64 KiB-1 MiB: the receiver-pulled rendezvous). Every block runs
/// once through comm.send/recv and once through XMPI_Send/Recv with the same
/// size and payload (ABAB pairs), so the pair's time ratio is the binding
/// overhead. Rank 1 echoes; both sides check a seeded payload pattern.
///
/// p2p_stream: 4 ranks in 2 disjoint sender -> receiver pairs. Senders send
/// seeded bursts of 8-512 B messages (some longer than a ring holds) and
/// wait for a 1-message ack; bursts alternate kamping and raw XMPI.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "kamping/kamping.hpp"

namespace perfbench {
namespace {

using Word = std::uint64_t;
constexpr int kWordBytes = static_cast<int>(sizeof(Word));
constexpr int kTagData = 11;
constexpr int kTagCtrl = 12;
constexpr int kTagAck = 13;
constexpr Word kStop = ~Word{0};

enum class Layer : int { kamping = 0, xmpi = 1 };

constexpr char const* layer_name(Layer layer) {
    return layer == Layer::kamping ? "kamping" : "xmpi";
}

/// @name One p2p call through the chosen layer. Raw XMPI error codes count
/// as failed operations; kamping reports errors by throwing, which ends the
/// run and is counted by main.
/// @{
template <Layer L>
void send_words(
    kamping::Communicator const& comm, std::vector<Word> const& buf, int words, int dest, int tag,
    Report& report) {
    if constexpr (L == Layer::kamping) {
        comm.send(
            kamping::send_buf(buf), kamping::send_count(words), kamping::destination(dest),
            kamping::tag(tag));
    } else {
        int const code = XMPI_Send(
            buf.data(), words, XMPI_UNSIGNED_LONG, dest, tag, comm.mpi_communicator());
        if (code != XMPI_SUCCESS) {
            report.check_code(code, "XMPI_Send");
        }
    }
}

template <Layer L>
void recv_words(
    kamping::Communicator const& comm, std::vector<Word>& buf, int words, int source, int tag,
    Report& report) {
    if constexpr (L == Layer::kamping) {
        comm.recv(
            kamping::recv_buf(buf), kamping::recv_count(words), kamping::source(source),
            kamping::tag(tag));
    } else {
        int const code = XMPI_Recv(
            buf.data(), words, XMPI_UNSIGNED_LONG, source, tag, comm.mpi_communicator(),
            XMPI_STATUS_IGNORE);
        if (code != XMPI_SUCCESS) {
            report.check_code(code, "XMPI_Recv");
        }
    }
}
/// @}

/// @brief Writes the seeded pattern of @c key into the first @c words words.
void fill_pattern(std::vector<Word>& buf, Word key, int words) {
    for (int i = 0; i < words; ++i) {
        buf[static_cast<std::size_t>(i)] = pattern_word(key, static_cast<std::size_t>(i));
    }
}

/// @brief True iff words [1, words) of @c a and @c b agree (word 0 is the stamp).
bool same_payload(std::vector<Word> const& a, std::vector<Word> const& b, int words) {
    return words <= 1 ||
           std::memcmp(a.data() + 1, b.data() + 1, static_cast<std::size_t>(words - 1) * sizeof(Word)) == 0;
}

/// @brief Per-rank thread-CPU and wall time of one phase.
struct CpuWall {
    double cpu_s = 0.0;
    double wall_s = 0.0;
};

/// @brief Tracks, for one rank, which phase it is in: counter snapshots,
/// thread CPU and wall time are closed on every phase change.
class PhaseTracker {
public:
    PhaseTracker(std::vector<PhaseCounters>& counters, std::vector<std::vector<CpuWall>>& time, int rank)
        : counters_(counters), time_(time), rank_(rank) {}

    void enter(int phase) {
        if (phase == current_) {
            return;
        }
        leave();
        current_ = phase;
        counters_[static_cast<std::size_t>(phase)].begin(rank_);
        cpu0_ = thread_cpu_s();
        wall0_ = wall_s();
    }
    void leave() {
        if (current_ < 0) {
            return;
        }
        counters_[static_cast<std::size_t>(current_)].end(rank_);
        auto& slot = time_[static_cast<std::size_t>(current_)][static_cast<std::size_t>(rank_)];
        slot.cpu_s += thread_cpu_s() - cpu0_;
        slot.wall_s += wall_s() - wall0_;
        current_ = -1;
    }

private:
    std::vector<PhaseCounters>& counters_;
    std::vector<std::vector<CpuWall>>& time_;
    int rank_;
    int current_ = -1;
    double cpu0_ = 0.0;
    double wall0_ = 0.0;
};

/// @brief Checks the transport's path accounting over one phase of
/// contiguous p2p traffic and counts every unaccounted message as a failed
/// operation. Every send is a coalesced append, a published ring slot, or
/// a ring-full bypass. On the coalescing and rendezvous paths (the small
/// and large bands) the narrower fastpath_sends + ring_full_fallbacks ==
/// messages identity holds as well; mid-size packed eager sends publish a
/// slot without counting as fastpath_sends, so it is not checked there.
void check_path_identity(Report& report, Counters const& c, char const* phase, bool fastpath_only) {
    auto const check = [&](std::uint64_t accounted, char const* identity) {
        std::uint64_t const messages = c[Counters::messages];
        std::uint64_t const missing = accounted > messages ? accounted - messages : messages - accounted;
        for (std::uint64_t i = 0; i < missing; ++i) {
            report.fail(std::string(identity) + " != messages in " + phase);
        }
    };
    check(c[Counters::coalesced] + c[Counters::ring_enqueues] + c[Counters::ring_full],
          "coalesced + ring_enqueues + ring_full");
    if (fastpath_only) {
        check(c[Counters::fastpath] + c[Counters::ring_full], "fastpath + ring_full");
    }
}

double mean_cpu_per_wall(std::vector<CpuWall> const& ranks) {
    std::vector<double> shares;
    for (auto const& r: ranks) {
        shares.push_back(ratio(r.cpu_s, r.wall_s));
    }
    return mean(shares);
}

// ---------------------------------------------------------------------------
// p2p_pingpong
// ---------------------------------------------------------------------------

struct Band {
    char const* name;
    int min_words;
    int max_words;
    int iterations;     ///< round trips per block
    double time_share;  ///< share of the measured time
};

/// Index 3 is the traced run's 8 B layer ladder.
constexpr Band kBands[] = {
    {"small", 8 / kWordBytes, 256 / kWordBytes, 200, 0.35},
    {"mid", 4096 / kWordBytes, 16384 / kWordBytes, 50, 0.25},
    {"large", 65536 / kWordBytes, 1048576 / kWordBytes, 4, 0.40},
    {"ladder", 1, 1, 200, 0.10},
};
constexpr int kNumBands = 4;
constexpr int kLadder = 3;
constexpr int kMaxWords = 1048576 / kWordBytes;
/// Pairs per band in tiny mode; the first pair of every band is warm-up.
constexpr std::uint64_t kTinyPairs = 3;

/// The two ranks move to the next CPU pair every kRotateS seconds: host
/// interference differs from CPU to CPU and drifts over minutes, and
/// visiting every pair in each run keeps one busy CPU from setting the
/// whole run's latency. The pair after a move is warm-up.
constexpr double kRotateS = 0.5;
constexpr int kCpuPairs[][2] = {{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}};

/// Control message from rank 0: what the next block is.
struct Ctrl {
    Word phase;  ///< pass * kNumBands + band, or kStop
    Word key;    ///< pattern key (shared by the pair's two blocks)
    Word words;
    Word iterations;
    Word layer;
    Word cpu;    ///< CPU index rank 1 runs the block on
};

struct PingpongState {
    kamping::Communicator comm;
    std::vector<Word> pattern; ///< expected payload (rank 0 sends it)
    std::vector<Word> recv;
};

/// Everything rank 0 measured in one phase (one band of one pass).
struct PhaseSamples {
    Samples rtt[2];                 ///< round trips, per layer
    Samples send_s[2];              ///< send call-return times, per layer
    Samples recv_s[2];              ///< recv call-return times, per layer
    std::vector<double> pair_ratio; ///< median rtt kamping / median rtt xmpi, per pair
    std::vector<double> pair_diff;  ///< median rtt kamping - median rtt xmpi, per pair
    double block_s[2] = {0.0, 0.0}; ///< summed round-trip time, per layer
    std::uint64_t bytes[2] = {0, 0};
    std::uint64_t messages = 0;
};

/// @brief One block of round trips driven by rank 0. @return its median round trip.
template <Layer L>
double ping_block(
    PingpongState& s, Context& ctx, int words, int iterations, PhaseSamples& out, bool record) {
    Word const base = s.pattern[0];
    std::vector<double> block_rtt;
    block_rtt.reserve(static_cast<std::size_t>(iterations));
    auto const l = static_cast<std::size_t>(L);
    for (int i = 0; i < iterations; ++i) {
        s.pattern[0] = base + static_cast<Word>(i);
        double const t0 = wall_s();
        send_words<L>(s.comm, s.pattern, words, 1, kTagData, ctx.report);
        double const t1 = wall_s();
        recv_words<L>(s.comm, s.recv, words, 1, kTagData, ctx.report);
        double const t2 = wall_s();
        ctx.spans.add(0, layer_name(L), "send", t0, t1);
        ctx.spans.add(0, layer_name(L), "recv", t1, t2);
        if (s.recv[0] != s.pattern[0]) {
            ctx.report.fail("p2p_pingpong: echoed stamp mismatch");
        }
        block_rtt.push_back(t2 - t0);
        if (record) {
            out.send_s[l].add(t1 - t0);
            out.recv_s[l].add(t2 - t1);
        }
    }
    if (!same_payload(s.recv, s.pattern, words)) {
        ctx.report.fail("p2p_pingpong: echoed payload differs from the seeded pattern");
    }
    s.pattern[0] = base;
    ctx.report.attempt(2 * static_cast<std::uint64_t>(iterations));
    if (record) {
        for (double rtt: block_rtt) {
            out.block_s[l] += rtt;
            out.rtt[l].add(rtt);
        }
        out.bytes[l] += 2 * static_cast<std::uint64_t>(iterations) * static_cast<std::uint64_t>(words) * sizeof(Word);
        out.messages += 2 * static_cast<std::uint64_t>(iterations);
    }
    return median(block_rtt);
}

template <Layer L>
void echo_block(PingpongState& s, Context& ctx, int words, int iterations) {
    Word const base = s.pattern[0];
    for (int i = 0; i < iterations; ++i) {
        recv_words<L>(s.comm, s.recv, words, 0, kTagData, ctx.report);
        if (s.recv[0] != base + static_cast<Word>(i)) {
            ctx.report.fail("p2p_pingpong: received stamp mismatch");
        }
        send_words<L>(s.comm, s.recv, words, 0, kTagData, ctx.report);
    }
    if (!same_payload(s.recv, s.pattern, words)) {
        ctx.report.fail("p2p_pingpong: received payload differs from the seeded pattern");
    }
}

void send_ctrl(PingpongState& s, Context& ctx, Ctrl const& ctrl) {
    ctx.report.check_code(
        XMPI_Send(&ctrl, sizeof(Ctrl) / sizeof(Word), XMPI_UNSIGNED_LONG, 1, kTagCtrl, s.comm.mpi_communicator()),
        "XMPI_Send");
}

/// @brief Drains xmpi's span log into the benchmark's bounded log.
void drain_profile_spans(SpanLog& spans) {
    spans.add_profile_spans(xmpi::profile::take_spans());
}

} // namespace

void run_p2p_pingpong(Context& ctx) {
    Options const& options = ctx.options;
    int const passes = options.trace ? 2 : 1;
    int const phases = passes * kNumBands;
    std::vector<PhaseCounters> counters(static_cast<std::size_t>(phases), PhaseCounters(2));
    std::vector<std::vector<CpuWall>> time(static_cast<std::size_t>(phases), std::vector<CpuWall>(2));
    std::vector<PhaseSamples> samples(static_cast<std::size_t>(phases));

    auto setup = [](int) {
        return PingpongState{kamping::Communicator(), std::vector<Word>(kMaxWords), std::vector<Word>(kMaxWords)};
    };

    auto initiator = [&](PingpongState& s) {
        PhaseTracker tracker(counters, time, 0);
        std::size_t rotation = 0; // run_worlds placed ranks 0 and 1 on kCpuPairs[0]
        double rotate_at = wall_s() + kRotateS;
        for (int pass = 0; pass < passes; ++pass) {
            bool const traced = pass == 1;
            xmpi::profile::set_tracing_enabled(traced);
            ctx.spans.set_enabled(traced);
            double const pass_share = options.trace ? 0.45 : 1.0;
            for (int band = 0; band < kNumBands; ++band) {
                // The 8 B ladder runs once, untraced, in the traced run only.
                if (band == kLadder && (!options.trace || traced)) {
                    continue;
                }
                Band const& b = kBands[band];
                int const phase = pass * kNumBands + band;
                auto& out = samples[static_cast<std::size_t>(phase)];
                tracker.enter(phase);
                Rng rng(options.seed * 1000003 + static_cast<std::uint64_t>(band));
                Budget const budget(options, b.time_share * pass_share, kTinyPairs);
                for (std::uint64_t pair = 0; budget.more(pair); ++pair) {
                    Word const key = rng.next();
                    int const words = static_cast<int>(rng.uniform(
                        static_cast<std::uint64_t>(b.min_words), static_cast<std::uint64_t>(b.max_words)));
                    fill_pattern(s.pattern, key, words);
                    bool moved = false;
                    if (wall_s() >= rotate_at) {
                        rotate_at = wall_s() + kRotateS;
                        ++rotation;
                        pin_current_thread(kCpuPairs[rotation % std::size(kCpuPairs)][0]);
                        moved = true;
                    }
                    auto const partner_cpu = static_cast<Word>(kCpuPairs[rotation % std::size(kCpuPairs)][1]);
                    bool const record = pair > 0 && !moved; // the first pair warms up
                    double block_median[2] = {0.0, 0.0};
                    for (Layer layer: {Layer::kamping, Layer::xmpi}) {
                        send_ctrl(s, ctx, Ctrl{static_cast<Word>(phase), key, static_cast<Word>(words),
                                               static_cast<Word>(b.iterations), static_cast<Word>(layer),
                                               partner_cpu});
                        block_median[static_cast<int>(layer)] =
                            layer == Layer::kamping
                                ? ping_block<Layer::kamping>(s, ctx, words, b.iterations, out, record)
                                : ping_block<Layer::xmpi>(s, ctx, words, b.iterations, out, record);
                    }
                    if (record) {
                        double const a = block_median[0];
                        double const raw = block_median[1];
                        out.pair_ratio.push_back(ratio(a, raw));
                        out.pair_diff.push_back(a - raw);
                    }
                    if (traced) {
                        drain_profile_spans(ctx.spans);
                    }
                }
            }
        }
        tracker.leave();
        xmpi::profile::set_tracing_enabled(false);
        ctx.spans.set_enabled(false);
        send_ctrl(s, ctx, Ctrl{kStop, 0, 0, 0, 0, 0});
    };

    auto echo = [&](PingpongState& s) {
        PhaseTracker tracker(counters, time, 1);
        Word last_key = 0;
        int last_words = -1;
        Word cpu = kCpuPairs[0][1];
        while (true) {
            Ctrl ctrl{};
            ctx.report.check_code(
                XMPI_Recv(&ctrl, sizeof(Ctrl) / sizeof(Word), XMPI_UNSIGNED_LONG, 0, kTagCtrl,
                          s.comm.mpi_communicator(), XMPI_STATUS_IGNORE),
                "XMPI_Recv");
            if (ctrl.phase == kStop) {
                break;
            }
            tracker.enter(static_cast<int>(ctrl.phase));
            int const words = static_cast<int>(ctrl.words);
            if (words < 1 || words > kMaxWords) {
                ctx.report.fail("p2p_pingpong: malformed control message");
                break;
            }
            if (ctrl.cpu != cpu) {
                cpu = ctrl.cpu;
                pin_current_thread(static_cast<int>(cpu));
            }
            if (ctrl.key != last_key || words != last_words) {
                fill_pattern(s.pattern, ctrl.key, words);
                last_key = ctrl.key;
                last_words = words;
            }
            if (static_cast<Layer>(ctrl.layer) == Layer::kamping) {
                echo_block<Layer::kamping>(s, ctx, words, static_cast<int>(ctrl.iterations));
            } else {
                echo_block<Layer::xmpi>(s, ctx, words, static_cast<int>(ctrl.iterations));
            }
        }
        tracker.leave();
    };

    run_worlds(ctx, 2, setup, [&](int rank, PingpongState& s) {
        if (rank == 0) {
            initiator(s);
        } else {
            echo(s);
        }
    });
    drain_profile_spans(ctx.spans);

    // ---- end-to-end metrics, from the untraced pass ----
    Report& report = ctx.report;
    auto const& small = samples[0];
    auto const& mid = samples[1];
    auto const& large = samples[2];
    auto const half_us = [](Samples const& rtt, double q) { return percentile(rtt, q) * 0.5e6; };
    double const small_p50 = half_us(small.rtt[0], 0.5);
    report.set("latency_us_p50", small_p50, "us", small.rtt[0].count());
    report.set("pp_small_us_p50", small_p50, "us", small.rtt[0].count());
    report.set("pp_small_us_p99", half_us(small.rtt[0], 0.99), "us", small.rtt[0].count());
    report.set("pp_mid_us_p50", half_us(mid.rtt[0], 0.5), "us", mid.rtt[0].count());
    double const large_MBps = ratio(static_cast<double>(large.bytes[0]), large.block_s[0]) / 1e6;
    report.set("pp_large_MBps", large_MBps, "MB/s", large.rtt[0].count());

    std::vector<double> ratios;
    std::uint64_t messages = 0;
    double cpu_s = 0.0;
    Counters pass_counters;
    for (int band = 0; band < 3; ++band) {
        auto const& out = samples[static_cast<std::size_t>(band)];
        ratios.insert(ratios.end(), out.pair_ratio.begin(), out.pair_ratio.end());
        messages += out.messages;
        for (auto const& r: time[static_cast<std::size_t>(band)]) {
            cpu_s += r.cpu_s;
        }
        Counters const c = counters[static_cast<std::size_t>(band)].total();
        check_path_identity(report, c, kBands[band].name, band != 1);
        report.exact(std::string("pp.messages.") + kBands[band].name, c[Counters::messages]);
        pass_counters += c;
    }
    // Throughput of the one-message-in-flight loop is the rendezvous band's
    // message rate; the small band's rate is the inverse of its latency.
    report.set("ops_per_s", ratio(static_cast<double>(large.messages), large.block_s[0] + large.block_s[1]), "1/s",
               large.messages);
    report.set("cpu_ns_per_op", ratio(cpu_s, static_cast<double>(messages)) * 1e9, "ns", messages);
    report.set("binding_overhead", median(ratios), "ratio", ratios.size());

    if (!options.trace) {
        return;
    }
    // ---- per-layer metrics ----
    report.set("kamping.p2p_overhead_ns", median(small.pair_diff) * 1e9, "ns", small.pair_diff.size());
    report.set("xmpi.send_ns", median(small.send_s[1]) * 1e9, "ns", small.send_s[1].count());
    report.set("xmpi.recv_ns", median(small.recv_s[1]) * 1e9, "ns", small.recv_s[1].count());
    report_transport(report, pass_counters);
    Counters const large_counters = counters[2].total();
    report.set(
        "transport.rendezvous_frac",
        ratio(
            static_cast<double>(large_counters[Counters::rendezvous]),
            static_cast<double>(large_counters[Counters::messages])),
        "frac", large_counters[Counters::messages]);
    report.set("transport.large_send_us", median(large.send_s[1]) * 1e6, "us", large.send_s[1].count());
    report.set("transport.large_recv_us", median(large.recv_s[1]) * 1e6, "us", large.recv_s[1].count());
    std::vector<CpuWall> per_rank(2);
    for (int band = 0; band < 3; ++band) {
        for (int r = 0; r < 2; ++r) {
            auto const& slot = time[static_cast<std::size_t>(band)][static_cast<std::size_t>(r)];
            per_rank[static_cast<std::size_t>(r)].cpu_s += slot.cpu_s;
            per_rank[static_cast<std::size_t>(r)].wall_s += slot.wall_s;
        }
    }
    report.set("ladder.cpu_per_wall", mean_cpu_per_wall(per_rank), "ratio", 2);

    // Stacked budget of the 8 B half round trip, inside out: ring push+pop,
    // XMPI above the ring, kamping above XMPI; the remainder is the share of
    // pp_small_us_p50 (8-256 B) the 8 B ladder does not account for.
    auto const& ladder = samples[kLadder];
    double const round_ns = median(ladder.rtt[0]) * 0.5e9;
    double const xmpi_ns = median(ladder.rtt[1]) * 0.5e9;
    double const ring_ns = ctx.direct.ring_push_pop_ns;
    report.set("p2p_budget.ring_ns", ring_ns, "ns", 1);
    report.set("p2p_budget.xmpi_ns", xmpi_ns - ring_ns, "ns", ladder.rtt[1].count());
    report.set("p2p_budget.kamping_ns", round_ns - xmpi_ns, "ns", ladder.rtt[0].count());
    report.set("p2p_budget.round_ns", round_ns, "ns", ladder.rtt[0].count());
    report.set("p2p_budget.unaccounted_frac", ratio(small_p50 * 1e3 - round_ns, small_p50 * 1e3), "frac", 1);

    // Tracing cost: the small-band headline with tracing on over off.
    auto const& traced_small = samples[kNumBands];
    report.set("trace.overhead", ratio(half_us(traced_small.rtt[0], 0.5), small_p50), "ratio", traced_small.rtt[0].count());
}

// ---------------------------------------------------------------------------
// p2p_stream
// ---------------------------------------------------------------------------

namespace {

constexpr int kStreamRanks = 4;
constexpr int kPairs = 2;
constexpr int kStreamMaxWords = 512 / kWordBytes;
constexpr std::size_t kSpecs = 64;
/// Bursts per layer in tiny mode (plus one warm-up pair).
constexpr std::uint64_t kTinyBursts = 4;

/// One burst: how many messages and each one's size in words.
struct BurstSpec {
    std::vector<int> words;
};

std::vector<BurstSpec> burst_specs(std::uint64_t seed, int pair) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(pair));
    std::vector<BurstSpec> specs(kSpecs);
    for (auto& spec: specs) {
        // Up to 2048 messages: longer bursts outrun a 64-slot ring even with
        // coalescing, so ring-full fallbacks can occur.
        auto const length = rng.uniform(16, 2048);
        spec.words.resize(length);
        for (auto& w: spec.words) {
            w = static_cast<int>(rng.uniform(1, kStreamMaxWords));
        }
    }
    return specs;
}

Word stamp(std::uint64_t burst, std::size_t i) {
    return (burst << 24) | i;
}

struct StreamState {
    kamping::Communicator comm;
    std::vector<BurstSpec> specs;
    std::vector<Word> pattern;
    std::vector<Word> recv;
    std::vector<Word> ack;
};

/// What one sender measured in one pass.
struct SenderSamples {
    std::vector<double> per_msg_s[2]; ///< burst round time / burst length, per layer
    std::vector<double> pair_ratio;   ///< burst time kamping / xmpi, per pair
    Samples send_s;                   ///< XMPI_Send call-return times (traced pass)
    std::uint64_t messages = 0;
};

struct ReceiverSamples {
    Samples recv_s; ///< XMPI_Recv call-return times (traced pass)
};

template <Layer L>
double send_burst(
    StreamState& s, Context& ctx, int rank, std::uint64_t burst, BurstSpec const& spec,
    SenderSamples& out, bool timed_calls) {
    int const peer = rank + kPairs;
    double const t0 = wall_s();
    for (std::size_t i = 0; i < spec.words.size(); ++i) {
        s.pattern[0] = stamp(burst, i);
        if (timed_calls) {
            double const a = wall_s();
            send_words<L>(s.comm, s.pattern, spec.words[i], peer, kTagData, ctx.report);
            double const b = wall_s();
            ctx.spans.add(rank, layer_name(L), "send", a, b);
            if constexpr (L == Layer::xmpi) {
                out.send_s.add(b - a);
            }
        } else {
            send_words<L>(s.comm, s.pattern, spec.words[i], peer, kTagData, ctx.report);
        }
    }
    recv_words<L>(s.comm, s.ack, 1, peer, kTagAck, ctx.report);
    double const t1 = wall_s();
    if (s.ack[0] != burst) {
        ctx.report.fail("p2p_stream: ack for the wrong burst");
    }
    ctx.report.attempt(spec.words.size() + 1);
    return t1 - t0;
}

template <Layer L>
bool recv_burst(
    StreamState& s, Context& ctx, int rank, std::uint64_t burst, BurstSpec const& spec,
    ReceiverSamples& out, bool timed_calls) {
    int const peer = rank - kPairs;
    for (std::size_t i = 0; i < spec.words.size(); ++i) {
        int const words = spec.words[i];
        if (timed_calls) {
            double const a = wall_s();
            recv_words<L>(s.comm, s.recv, words, peer, kTagData, ctx.report);
            double const b = wall_s();
            ctx.spans.add(rank, layer_name(L), "recv", a, b);
            if constexpr (L == Layer::xmpi) {
                out.recv_s.add(b - a);
            }
        } else {
            recv_words<L>(s.comm, s.recv, words, peer, kTagData, ctx.report);
        }
        if (i == 0 && s.recv[0] == kStop) {
            return false;
        }
        if (s.recv[0] != stamp(burst, i) || !same_payload(s.recv, s.pattern, words)) {
            ctx.report.fail("p2p_stream: payload differs from the seeded pattern");
        }
    }
    s.ack[0] = burst;
    send_words<L>(s.comm, s.ack, 1, peer, kTagAck, ctx.report);
    return true;
}

} // namespace

void run_p2p_stream(Context& ctx) {
    Options const& options = ctx.options;
    int const passes = options.trace ? 2 : 1;
    std::vector<PhaseCounters> counters(static_cast<std::size_t>(passes), PhaseCounters(kStreamRanks));
    auto const npasses = static_cast<std::size_t>(passes);
    std::vector<std::vector<CpuWall>> time(npasses, std::vector<CpuWall>(kStreamRanks));
    std::vector<std::vector<SenderSamples>> senders(npasses, std::vector<SenderSamples>(kPairs));
    std::vector<std::vector<ReceiverSamples>> receivers(npasses, std::vector<ReceiverSamples>(kPairs));
    std::vector<double> pass_wall(static_cast<std::size_t>(passes), 0.0);

    auto setup = [&](int rank) {
        int const pair = rank % kPairs;
        StreamState s{kamping::Communicator(), burst_specs(options.seed, pair), std::vector<Word>(kStreamMaxWords),
                      std::vector<Word>(kStreamMaxWords), std::vector<Word>(1)};
        fill_pattern(s.pattern, options.seed * 31 + static_cast<Word>(pair), kStreamMaxWords);
        return s;
    };

    run_worlds(ctx, kStreamRanks, setup, [&](int rank, StreamState& s) {
        bool const sender = rank < kPairs;
        int const pair = rank % kPairs;
        for (int pass = 0; pass < passes; ++pass) {
            bool const traced = pass == 1;
            auto const p = static_cast<std::size_t>(pass);
            if (rank == 0) {
                xmpi::profile::set_tracing_enabled(traced);
                ctx.spans.set_enabled(traced);
            }
            ctx.report.check_code(XMPI_Barrier(s.comm.mpi_communicator()), "XMPI_Barrier");
            double const start = wall_s();
            double const cpu0 = thread_cpu_s();
            counters[p].begin(rank);
            Budget const budget(options, options.trace ? 0.5 : 1.0, kTinyBursts + 1);
            if (sender) {
                auto& out = senders[p][static_cast<std::size_t>(pair)];
                for (std::uint64_t burst = 0;; burst += 2) {
                    auto const& spec = s.specs[(burst / 2) % kSpecs];
                    if (!budget.more(burst / 2)) {
                        s.pattern[0] = kStop;
                        send_words<Layer::xmpi>(s.comm, s.pattern, spec.words[0], rank + kPairs, kTagData, ctx.report);
                        break;
                    }
                    double const a = send_burst<Layer::kamping>(s, ctx, rank, burst, spec, out, traced);
                    double const b = send_burst<Layer::xmpi>(s, ctx, rank, burst + 1, spec, out, traced);
                    if (burst > 0) { // the first pair warms up
                        double const n = static_cast<double>(spec.words.size());
                        out.per_msg_s[0].push_back(a / n);
                        out.per_msg_s[1].push_back(b / n);
                        out.pair_ratio.push_back(ratio(a, b));
                    }
                    out.messages += 2 * spec.words.size();
                    if (traced && rank == 0) {
                        // Keeps xmpi's span log bounded while all 4 ranks record.
                        drain_profile_spans(ctx.spans);
                    }
                }
            } else {
                auto& out = receivers[p][static_cast<std::size_t>(pair)];
                for (std::uint64_t burst = 0;; burst += 2) {
                    auto const& spec = s.specs[(burst / 2) % kSpecs];
                    if (!recv_burst<Layer::kamping>(s, ctx, rank, burst, spec, out, traced)) {
                        break;
                    }
                    recv_burst<Layer::xmpi>(s, ctx, rank, burst + 1, spec, out, traced);
                }
            }
            counters[p].end(rank);
            time[p][static_cast<std::size_t>(rank)] = {thread_cpu_s() - cpu0, wall_s() - start};
            ctx.report.check_code(XMPI_Barrier(s.comm.mpi_communicator()), "XMPI_Barrier");
            if (rank == 0) {
                pass_wall[p] = wall_s() - start;
                if (traced) {
                    drain_profile_spans(ctx.spans);
                }
            }
        }
        if (rank == 0) {
            xmpi::profile::set_tracing_enabled(false);
            ctx.spans.set_enabled(false);
        }
    });
    drain_profile_spans(ctx.spans);

    Report& report = ctx.report;
    auto const pass_metrics = [&](std::size_t p, std::vector<double>& per_msg, std::vector<double>& ratios) {
        std::uint64_t messages = 0;
        for (auto const& out: senders[p]) {
            per_msg.insert(per_msg.end(), out.per_msg_s[0].begin(), out.per_msg_s[0].end());
            ratios.insert(ratios.end(), out.pair_ratio.begin(), out.pair_ratio.end());
            messages += out.messages;
        }
        return messages;
    };
    std::vector<double> per_msg;
    std::vector<double> ratios;
    std::uint64_t const messages = pass_metrics(0, per_msg, ratios);
    double cpu_s = 0.0;
    for (auto const& r: time[0]) {
        cpu_s += r.cpu_s;
    }
    double const latency_us = median(per_msg) * 1e6;
    report.set("latency_us_p50", latency_us, "us", per_msg.size());
    report.set("ops_per_s", ratio(static_cast<double>(messages), pass_wall[0]), "1/s", messages);
    report.set("stream_msgs_per_s", ratio(static_cast<double>(messages), pass_wall[0]), "1/s", messages);
    report.set("cpu_ns_per_op", ratio(cpu_s, static_cast<double>(messages)) * 1e9, "ns", messages);
    report.set("stream_cpu_ns_per_msg", ratio(cpu_s, static_cast<double>(messages)) * 1e9, "ns", messages);
    report.set("binding_overhead", median(ratios), "ratio", ratios.size());
    Counters const c = counters[0].total();
    check_path_identity(report, c, "p2p_stream", true);
    report.exact("stream.messages", c[Counters::messages]);

    if (!options.trace) {
        return;
    }
    report_transport(report, c);
    report.set("ladder.cpu_per_wall", mean_cpu_per_wall(time[0]), "ratio", kStreamRanks);
    std::vector<double> send_s;
    std::vector<double> recv_s;
    std::size_t calls = 0;
    for (int pair = 0; pair < kPairs; ++pair) {
        auto const& out = senders[1][static_cast<std::size_t>(pair)].send_s;
        send_s.insert(send_s.end(), out.kept().begin(), out.kept().end());
        auto const& in = receivers[1][static_cast<std::size_t>(pair)].recv_s;
        recv_s.insert(recv_s.end(), in.kept().begin(), in.kept().end());
        calls += out.count();
    }
    report.set("xmpi.send_ns", median(send_s) * 1e9, "ns", calls);
    report.set("xmpi.recv_ns", median(recv_s) * 1e9, "ns", calls);
    std::vector<double> traced_per_msg;
    std::vector<double> traced_ratios;
    (void)pass_metrics(1, traced_per_msg, traced_ratios);
    report.set("trace.overhead", ratio(median(traced_per_msg) * 1e6, latency_us), "ratio", traced_per_msg.size());
}

} // namespace perfbench
