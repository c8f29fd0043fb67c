/// @file main.cpp
/// @brief The benchmark program: runs one workload and prints its report.
///
/// Usage: perfbench --workload <p2p_pingpong|p2p_stream|collectives|kasched>
///                  --seed N --seconds S --trace 0|1 [--tiny] [--spans-out FILE]
///
/// Prints human-readable metric lines, then one JSON line with every metric
/// (value, unit, sample count), the exact counts, and attempted/failed
/// operations. perfbench/run.py picks the metrics BENCHMARK.json lists.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Context;

struct Workload {
    char const* name;
    void (*run)(Context&);
};

constexpr Workload kWorkloads[] = {
    {"p2p_pingpong", perfbench::run_p2p_pingpong},
    {"p2p_stream", perfbench::run_p2p_stream},
    {"collectives", perfbench::run_collectives},
    {"kasched", perfbench::run_kasched},
};

int usage(char const* problem) {
    std::fprintf(
        stderr,
        "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--tiny] [--spans-out FILE]\n",
        problem);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        std::string const flag = argv[i];
        bool const has_value = i + 1 < argc;
        if (flag == "--tiny") {
            options.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + flag).c_str());
        } else if (flag == "--workload") {
            options.workload = argv[++i];
        } else if (flag == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace") {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (flag == "--spans-out") {
            options.spans_out = argv[++i];
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    Workload const* workload = nullptr;
    for (auto const& candidate: kWorkloads) {
        if (options.workload == candidate.name) {
            workload = &candidate;
        }
    }
    if (workload == nullptr) {
        return usage("unknown workload");
    }
    if (!(options.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }

    perfbench::init_cpu_list();
    perfbench::Report report;
    perfbench::SpanLog spans;
    Context ctx{options, report, spans, {}};
    try {
        if (options.trace) {
            ctx.direct = perfbench::measure_direct_layers(options);
            report.set("ring.push_pop_ns", ctx.direct.ring_push_pop_ns, "ns", 1);
            report.set("ring.append_ns", ctx.direct.ring_append_ns, "ns", 1);
            report.set("coll.select_ns", ctx.direct.select_ns, "ns", 1);
        }
        workload->run(ctx);
    } catch (std::exception const& error) {
        report.fail(std::string("run aborted: ") + error.what());
    }
    report.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB", 1);
    if (options.trace && !options.spans_out.empty() && !spans.write(options.spans_out)) {
        report.fail("cannot write spans to " + options.spans_out);
    }
    report.print(options.workload);
    return 0;
}
