/// @file bench_common.hpp
/// @brief Shared utilities of the benchmark harnesses: command-line
/// options, network-model configuration, timed world runs, paper-style table
/// printing, the paired A/B measurement every binding-overhead gate uses,
/// and the JSON writer behind every BENCH_*.json.
///
/// All scaling benchmarks run under the xmpi alpha/beta network model
/// (default: alpha = 30 us, beta = 0.15 ns/B, emulating a fast
/// interconnect's cost structure), because without per-message costs the
/// latency-avoiding algorithms of the paper would have nothing to avoid.
/// Absolute times are emulation artifacts; orderings and crossovers are the
/// reproduced result (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace bench {

/// @brief Command-line configuration shared by the harnesses (the gated
/// micro-benchmarks read only --quick).
struct Options {
    double alpha = 30e-6;    ///< per-message start-up cost [s]
    double beta = 0.15e-9;   ///< per-byte cost [s]
    int repetitions = 3;     ///< timed repetitions (median reported)
    int max_p = 32;          ///< largest world size in sweeps
    bool quick = false;      ///< reduce sizes for smoke runs

    static Options parse(int argc, char** argv) {
        Options options;
        for (int i = 1; i < argc; ++i) {
            auto const matches = [&](char const* flag) {
                return std::strncmp(argv[i], flag, std::strlen(flag)) == 0;
            };
            auto const value = [&] { return std::strchr(argv[i], '=') + 1; };
            if (matches("--alpha=")) {
                options.alpha = std::atof(value());
            } else if (matches("--beta=")) {
                options.beta = std::atof(value());
            } else if (matches("--reps=")) {
                options.repetitions = std::atoi(value());
            } else if (matches("--max-p=")) {
                options.max_p = std::atoi(value());
            } else if (matches("--quick")) {
                options.quick = true;
            }
        }
        return options;
    }

    [[nodiscard]] xmpi::NetworkModel model() const {
        return xmpi::NetworkModel{alpha, beta};
    }
};

/// @brief Runs @c body in a world of size p under the model and returns the
/// wall time of the slowest rank (the paper's "total time"), in seconds.
/// A warm-up run precedes @c repetitions timed ones; the minimum is
/// reported (standard practice for emulated-latency measurements).
inline double timed_world_run(
    int p, xmpi::NetworkModel const& model, int repetitions,
    std::function<void(int)> const& body) {
    double best = 1e300;
    for (int repetition = 0; repetition < repetitions + 1; ++repetition) {
        double slowest = 0.0;
        std::mutex slowest_mutex;
        xmpi::World::run_ranked(
            p,
            [&](int rank) {
                XMPI_Barrier(XMPI_COMM_WORLD);
                double const start = XMPI_Wtime();
                body(rank);
                double const elapsed = XMPI_Wtime() - start;
                std::lock_guard lock(slowest_mutex);
                slowest = std::max(slowest, elapsed);
            },
            model);
        if (repetition > 0) { // skip the warm-up
            best = std::min(best, slowest);
        }
    }
    return best;
}

/// @brief Prints one table row: label column + fixed-width value columns.
inline void print_row(std::string const& label, std::vector<std::string> const& cells) {
    std::printf("%-24s", label.c_str());
    for (auto const& cell: cells) {
        std::printf(" %12s", cell.c_str());
    }
    std::printf("\n");
}

inline std::string format_seconds(double seconds) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4f", seconds);
    return buffer;
}

inline std::string format_count(std::uint64_t count) {
    return std::to_string(count);
}

/// @brief World sizes 1, 2, 4, ... up to max_p.
inline std::vector<int> power_of_two_sweep(int max_p) {
    std::vector<int> sweep;
    for (int p = 1; p <= max_p; p *= 2) {
        sweep.push_back(p);
    }
    return sweep;
}

/// @brief CPU time consumed by the calling thread, in seconds.
inline double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// @brief Median of @c samples (the upper one for an even count); 0 if empty.
inline double median_of(std::vector<double> samples) {
    if (samples.empty()) {
        return 0.0;
    }
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
}

/// @brief Wall and thread-CPU cost per round of one variant.
///
/// Wall time of a *synchronizing* operation on an oversubscribed machine
/// measures the scheduler: most of every round is spent blocked on laggard
/// ranks, with run-to-run swings far larger than a per-call binding cost.
/// Thread-CPU time does not accumulate while blocked, so it isolates the
/// per-round work (resolution, allocation, packing, reduction).
struct RoundCost {
    double wall_usec = 0.0; ///< median per-round wall time of the calling rank
    double cpu_usec = 0.0;  ///< median per-round thread-CPU time, summed over ranks
};

/// @brief Result of per_round_paired_cost: medians per variant plus the
/// median of the per-pair CPU differences.
struct PairedCost {
    RoundCost a;
    RoundCost b;
    double cpu_delta_usec = 0.0; ///< median of the paired (a - b) CPU differences

    /// @brief B's per-round CPU cost relative to A's, from the paired
    /// difference: 1 - median(a - b) / median(a). This is the statistic of
    /// every binding-overhead gate (A = hand-written XMPI, B = kamping).
    [[nodiscard]] double cpu_ratio() const {
        return a.cpu_usec > 0.0 ? 1.0 - cpu_delta_usec / a.cpu_usec : 0.0;
    }
};

/// @brief Paired A/B measurement of two per-round bodies; collective over
/// XMPI_COMM_WORLD (every rank of the current world calls it).
///
/// After a warm-up that faults in both paths, each of @c pairs iterations
/// times one batch of @c rounds rounds of each variant from adjacent
/// barrier epochs, alternating the order (ABBA) to cancel drift, so both
/// batches of a pair see the same scheduler mood and their CPU difference
/// isolates the systematic per-round cost gap. CPU samples are summed over
/// ranks (every rank pays the cost under test, so the signal adds up while
/// per-rank noise averages out); the result is identical on every rank.
/// Gates consume the median of the paired differences, the noise-robust
/// statistic for a small persistent effect under common-mode noise
/// (mpptest's per-operation harness; CommBench's warm-up x iterations).
template <typename RoundA, typename RoundB>
PairedCost per_round_paired_cost(int rounds, RoundA&& round_a, RoundB&& round_b, int pairs = 15) {
    auto const timed_batch = [&](auto& round, double& wall_usec) {
        XMPI_Barrier(XMPI_COMM_WORLD);
        double const w0 = XMPI_Wtime();
        double const c0 = thread_cpu_seconds();
        for (int i = 0; i < rounds; ++i) {
            round();
        }
        double const cpu = thread_cpu_seconds() - c0;
        wall_usec = (XMPI_Wtime() - w0) * 1e6 / rounds;
        return cpu * 1e6 / rounds;
    };
    XMPI_Barrier(XMPI_COMM_WORLD);
    for (int i = 0; i < 4; ++i) {
        round_a();
        round_b();
    }
    auto const n = static_cast<std::size_t>(pairs);
    std::vector<double> cpu_a(n), cpu_b(n), wall_a(n), wall_b(n);
    for (std::size_t pair = 0; pair < n; ++pair) {
        if (pair % 2 == 0) {
            cpu_a[pair] = timed_batch(round_a, wall_a[pair]);
            cpu_b[pair] = timed_batch(round_b, wall_b[pair]);
        } else {
            cpu_b[pair] = timed_batch(round_b, wall_b[pair]);
            cpu_a[pair] = timed_batch(round_a, wall_a[pair]);
        }
    }
    XMPI_Allreduce(XMPI_IN_PLACE, cpu_a.data(), pairs, XMPI_DOUBLE, XMPI_SUM, XMPI_COMM_WORLD);
    XMPI_Allreduce(XMPI_IN_PLACE, cpu_b.data(), pairs, XMPI_DOUBLE, XMPI_SUM, XMPI_COMM_WORLD);
    std::vector<double> delta(n);
    for (std::size_t pair = 0; pair < n; ++pair) {
        delta[pair] = cpu_a[pair] - cpu_b[pair];
    }
    return {{median_of(wall_a), median_of(cpu_a)}, {median_of(wall_b), median_of(cpu_b)},
            median_of(delta)};
}

/// @brief A JSON value under construction: a number, bool, string, array
/// or object. Strings and keys are escaped; a non-finite number becomes
/// null, so the output always parses.
///
///   auto row = bench::Json::object().set("bytes", 64).set("usec", bench::Json(x, 4));
///   bench::Json::object().set("benchmark", "rma").set("rows", rows).emit("rma");
class Json {
public:
    [[nodiscard]] static Json object() { return Json(Kind::object, ""); }
    [[nodiscard]] static Json array() { return Json(Kind::array, ""); }

    Json(bool value) : Json(Kind::literal, value ? "true" : "false") {}
    template <std::integral T>
    Json(T value) : Json(Kind::literal, std::to_string(value)) {}
    /// @brief A number printed with @c decimals digits after the point.
    Json(double value, int decimals = 3) : Json(Kind::literal, "null") {
        if (std::isfinite(value)) {
            int const length = std::snprintf(nullptr, 0, "%.*f", decimals, value);
            text_.resize(static_cast<std::size_t>(length));
            std::snprintf(text_.data(), text_.size() + 1, "%.*f", decimals, value);
        }
    }
    Json(char const* value) : Json(Kind::string, value) {}
    Json(std::string value) : Json(Kind::string, std::move(value)) {}

    /// @brief Appends a member to an object.
    Json& set(std::string key, Json value) & {
        members_.emplace_back(std::move(key), std::move(value));
        return *this;
    }
    Json&& set(std::string key, Json value) && {
        return std::move(set(std::move(key), std::move(value)));
    }

    /// @brief Appends an element to an array.
    Json& push(Json value) {
        members_.emplace_back(std::string(), std::move(value));
        return *this;
    }

    /// @brief The document, two-space indented; a container holding only
    /// scalars stays on one line.
    [[nodiscard]] std::string dump() const {
        std::string out;
        dump_to(out, 0);
        out += '\n';
        return out;
    }

    /// @brief Writes the document to @c path; reports a failure on stderr.
    bool save(std::string const& path) const {
        std::FILE* file = std::fopen(path.c_str(), "w");
        bool const ok = file != nullptr && std::fputs(dump().c_str(), file) >= 0;
        if (file != nullptr && std::fclose(file) != 0) {
            return report_failure(path);
        }
        return ok || report_failure(path);
    }

    /// @brief Echoes the document to stdout and writes BENCH_<name>.json.
    bool emit(std::string const& name) const {
        std::printf("%s", dump().c_str());
        return save("BENCH_" + name + ".json");
    }

private:
    enum class Kind { literal, string, array, object };

    Json(Kind kind, std::string text) : kind_(kind), text_(std::move(text)) {}

    static bool report_failure(std::string const& path) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return false;
    }

    static void quote(std::string& out, std::string const& text) {
        out += '"';
        for (char const c: text) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char escaped[8];
                std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
                out += escaped;
            } else {
                out += c;
            }
        }
        out += '"';
    }

    void dump_to(std::string& out, int indent) const {
        if (kind_ == Kind::literal) {
            out += text_;
            return;
        }
        if (kind_ == Kind::string) {
            quote(out, text_);
            return;
        }
        bool const flat = std::all_of(members_.begin(), members_.end(), [](auto const& member) {
            return member.second.kind_ == Kind::literal || member.second.kind_ == Kind::string;
        });
        auto const indent_to = [&](int width) {
            out += '\n';
            out.append(static_cast<std::size_t>(width), ' ');
        };
        out += kind_ == Kind::object ? '{' : '[';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i > 0) {
                out += flat ? ", " : ",";
            }
            if (!flat) {
                indent_to(indent + 2);
            }
            if (kind_ == Kind::object) {
                quote(out, members_[i].first);
                out += ": ";
            }
            members_[i].second.dump_to(out, indent + 2);
        }
        if (!flat) {
            indent_to(indent);
        }
        out += kind_ == Kind::object ? '}' : ']';
    }

    Kind kind_;
    std::string text_; ///< literal text or unescaped string
    std::vector<std::pair<std::string, Json>> members_; ///< keys are empty in arrays
};

} // namespace bench
