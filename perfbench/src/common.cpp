#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "xmpi/xmpi.hpp"

namespace perfbench {

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace {
std::vector<int>& allowed_cpus() {
    static std::vector<int> cpus;
    return cpus;
}
} // namespace

void init_cpu_list() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) {
        return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
            allowed_cpus().push_back(cpu);
        }
    }
}

void pin_current_thread(int index) {
    auto const& cpus = allowed_cpus();
    if (cpus.empty()) {
        return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    auto const rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    std::size_t const index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index), values.end());
    return values[index];
}

double mean(std::vector<double> const& values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double value: values) {
        sum += value;
    }
    return sum / static_cast<double>(values.size());
}

Counters Counters::of_rank(int world_rank) {
    auto const s = xmpi::profile::snapshot_of(world_rank);
    Counters c;
    c.v[messages] = s.messages_sent;
    c.v[fastpath] = s.fastpath_sends;
    c.v[ring_enqueues] = s.ring_enqueues;
    c.v[coalesced] = s.coalesced_sends;
    c.v[ring_full] = s.ring_full_fallbacks;
    c.v[rendezvous] = s.rendezvous_transfers;
    c.v[pool_misses] = s.pool_misses;
    c.v[engine_tasks] = s.engine_tasks;
    c.v[engine_inline] = s.engine_inline_fallbacks;
    c.v[engine_steals] = s.engine_caller_steals;
    c.v[rma_atomics] = s.rma_atomics;
    c.v[rma_epoch_waits] = s.rma_epoch_waits;
    c.v[steals_attempted] = s.sched_steals_attempted;
    c.v[steals_succeeded] = s.sched_steals_succeeded;
    c.v[tasks_executed] = s.sched_tasks_executed;
    return c;
}

Counters Counters::operator-(Counters const& other) const {
    Counters c;
    for (std::size_t i = 0; i < kNumFields; ++i) {
        c.v[i] = v[i] - other.v[i];
    }
    return c;
}

Counters& Counters::operator+=(Counters const& other) {
    for (std::size_t i = 0; i < kNumFields; ++i) {
        v[i] += other.v[i];
    }
    return *this;
}

Counters PhaseCounters::total() const {
    Counters sum;
    for (std::size_t r = 0; r < before_.size(); ++r) {
        sum += after_[r] - before_[r];
    }
    return sum;
}

void report_transport(Report& report, Counters const& c) {
    double const messages = static_cast<double>(c[Counters::messages]);
    auto const share = [&](Counters::Field field) {
        return ratio(static_cast<double>(c[field]), messages);
    };
    report.set("transport.coalesced_frac", share(Counters::coalesced), "frac", c[Counters::messages]);
    // Messages that rode a published slot: their own, or appended to a batch.
    double const in_slots = static_cast<double>(c[Counters::coalesced] + c[Counters::ring_enqueues]);
    report.set(
        "transport.msgs_per_slot", ratio(in_slots, static_cast<double>(c[Counters::ring_enqueues])),
        "msgs/slot", c[Counters::ring_enqueues]);
    report.set("transport.ring_full_fallbacks", static_cast<double>(c[Counters::ring_full]), "count", 1);
    report.set("transport.pool_miss_per_send", share(Counters::pool_misses), "1/msg", c[Counters::messages]);
}

void SpanLog::resize(int ranks) {
    per_rank_.resize(static_cast<std::size_t>(ranks));
    dropped_.resize(static_cast<std::size_t>(ranks), 0);
    for (auto& buffer: per_rank_) {
        buffer.reserve(1024);
    }
}

void SpanLog::add_profile_spans(std::vector<xmpi::profile::Span> const& spans) {
    std::size_t const room = kPerRank * std::max<std::size_t>(per_rank_.size(), 1);
    for (auto const& span: spans) {
        if (profile_spans_.size() >= room) {
            break;
        }
        profile_spans_.push_back(span);
    }
}

bool SpanLog::write(std::string const& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    std::fprintf(file, "[\n");
    bool first = true;
    auto const separator = [&] {
        std::fprintf(file, first ? "  " : ",\n  ");
        first = false;
    };
    for (auto const& buffer: per_rank_) {
        for (auto const& span: buffer) {
            separator();
            std::fprintf(
                file,
                "{\"source\": \"bench\", \"layer\": \"%s\", \"op\": \"%s\", \"rank\": %d, "
                "\"start_s\": %.9f, \"duration_s\": %.9f}",
                span.layer, span.op, span.rank, span.start_s, span.end_s - span.start_s);
        }
    }
    for (auto const& span: profile_spans_) {
        separator();
        std::fprintf(
            file,
            "{\"source\": \"xmpi\", \"op\": \"%s\", \"algorithm\": \"%s\", \"rank\": %d, "
            "\"start_s\": %.9f, \"duration_s\": %.9f, \"queue_s\": %.9f, \"epoch_wait_s\": %.9f}",
            span.op, span.algorithm, span.world_rank, span.start_s, span.duration_s, span.queue_s,
            span.epoch_wait_s);
    }
    std::uint64_t dropped = 0;
    for (auto count: dropped_) {
        dropped += count;
    }
    if (dropped > 0) {
        separator();
        std::fprintf(
            file, "{\"source\": \"bench\", \"op\": \"dropped\", \"count\": %llu}",
            static_cast<unsigned long long>(dropped));
    }
    std::fprintf(file, "\n]\n");
    return std::fclose(file) == 0;
}

void Report::set(
    std::string const& name, double value, std::string const& unit, std::size_t samples) {
    std::lock_guard lock(mutex_);
    metrics_[name] = Metric{value, unit, samples};
}

void Report::exact(std::string const& name, std::uint64_t value) {
    std::lock_guard lock(mutex_);
    exact_[name] = value;
}

void Report::attempt(std::uint64_t operations) {
    std::lock_guard lock(mutex_);
    attempted_ += operations;
}

void Report::fail(std::string const& what) {
    std::lock_guard lock(mutex_);
    ++failed_;
    if (failures_.size() < 8) {
        failures_.push_back(what);
    }
}

void Report::check_code(int code, char const* call) {
    if (code != XMPI_SUCCESS) {
        fail(std::string(call) + " returned " + std::to_string(code));
    }
}

namespace {
std::string json_escape(std::string const& text) {
    std::string out;
    for (char c: text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (c == '\n') ? ' ' : c;
    }
    return out;
}
} // namespace

void Report::print(std::string const& workload) const {
    std::lock_guard lock(mutex_);
    std::printf("workload %s\n", workload.c_str());
    for (auto const& [name, metric]: metrics_) {
        std::printf(
            "  %-40s %16.6g %-8s (n=%zu)\n", name.c_str(), metric.value, metric.unit.c_str(),
            metric.samples);
    }
    for (auto const& [name, value]: exact_) {
        std::printf("  %-40s %16llu exact\n", name.c_str(), static_cast<unsigned long long>(value));
    }
    std::printf(
        "  attempted %llu, failed %llu\n", static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_));
    for (auto const& failure: failures_) {
        std::printf("  FAILED: %s\n", failure.c_str());
    }
    std::string json = "{\"workload\": \"" + workload + "\", \"attempted\": " +
                       std::to_string(attempted_) + ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    bool first = true;
    for (auto const& [name, metric]: metrics_) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
                metric.unit + "\", \"samples\": " + std::to_string(metric.samples) + "}";
        first = false;
    }
    json += "}, \"exact\": {";
    first = true;
    for (auto const& [name, value]: exact_) {
        json += (first ? "\"" : ", \"") + name + "\": " + std::to_string(value);
        first = false;
    }
    json += "}, \"failures\": [";
    first = true;
    for (auto const& failure: failures_) {
        json += (first ? "\"" : ", \"") + json_escape(failure) + "\"";
        first = false;
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
