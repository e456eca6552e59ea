/// @file main.cpp
/// @brief perfbench: runs one workload and prints its report as one JSON
/// object on standard output.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <file>]
///
/// Untraced (--trace 0) the report holds the end-to-end metrics; traced
/// (--trace 1) it holds the per-layer ledger and writes a Chrome trace.
/// Exit status 0 iff every output of the workload was correct and the
/// thread census stayed within the host's processors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "probes.hpp"
#include "workloads.hpp"
#include "xmpi/progress.hpp"

namespace perfbench {
namespace {

/// Minimal JSON emitter for the report.
class Json {
public:
    Json& key(std::string const& k) {
        comma();
        out_ << quote(k) << ':';
        fresh_ = true;
        return *this;
    }
    Json& value(double v) {
        comma();
        if (std::isfinite(v)) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            out_ << buf;
        } else {
            out_ << "null";
        }
        return *this;
    }
    Json& value(std::string const& v) {
        comma();
        out_ << quote(v);
        return *this;
    }
    Json& value(bool v) {
        comma();
        out_ << (v ? "true" : "false");
        return *this;
    }
    Json& open(char bracket) {
        comma();
        out_ << bracket;
        fresh_ = true;
        return *this;
    }
    Json& close(char bracket) {
        out_ << bracket;
        fresh_ = false;
        return *this;
    }
    [[nodiscard]] std::string str() const { return out_.str(); }

private:
    void comma() {
        if (!fresh_) {
            out_ << ',';
        }
        fresh_ = false;
    }
    static std::string quote(std::string const& s) {
        std::string q = "\"";
        for (char c: s) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                q += ' ';
            } else {
                q += c;
            }
        }
        return q + "\"";
    }
    std::ostringstream out_;
    bool fresh_ = true;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    double samples = -1.0; ///< sample count behind the value, when it is a statistic
    double band = -1.0;    ///< noise band, for paired differences
    int resolved = -1;     ///< -1: not applicable
};

/// num / den as a double; 0 when there is nothing to divide by.
template <typename N, typename D>
double ratio(N num, D den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Rate and latency quantiles of a phase, as medians over up to ten
/// consecutive windows of equal op count, so a burst of host noise in one
/// window (or one slow op of a short run) does not move the figure. The
/// tail is taken per window only when each window holds at least
/// kTailWindowOps ops; otherwise over the whole phase.
struct Windowed {
    double ops_per_s = 0.0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    std::vector<double> rates; ///< per window, for the report
};

Windowed windowed(Phase const& t) {
    constexpr std::size_t kTailWindowOps = 100;
    std::size_t const n = t.lat_ns.size();
    if (n == 0) {
        return {};
    }
    std::size_t const k = std::min<std::size_t>(n, 10);
    Windowed result;
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (std::size_t w = 0; w < k; ++w) {
        std::size_t const a = n * w / k;
        std::size_t const b = n * (w + 1) / k;
        std::vector<std::int64_t> const lat(t.lat_ns.begin() + static_cast<std::ptrdiff_t>(a),
                                            t.lat_ns.begin() + static_cast<std::ptrdiff_t>(b));
        std::int64_t const from = a == 0 ? t.start_ns : t.done_ns[a - 1];
        result.rates.push_back(ratio(b - a, 1e-9 * static_cast<double>(t.done_ns[b - 1] - from)));
        p50s.push_back(quantile(lat, 0.5));
        p99s.push_back(quantile(lat, 0.99));
    }
    result.ops_per_s = median(result.rates);
    result.p50_ns = median(p50s);
    result.p99_ns = n / k >= kTailWindowOps ? median(p99s) : quantile(t.lat_ns, 0.99);
    return result;
}

std::vector<Metric> end_to_end(WorkloadResult const& r, Windowed const& w) {
    Phase const& t = r.timed;
    auto const ops = static_cast<double>(t.ops);
    // op_p99_us is reported here but gated nowhere (it is too noisy on a
    // shared host); the traced run lists it as tail.op_p99_us. It is a
    // resolved tail only with at least 1000 ops in the run.
    return {
        {"ops_per_s", w.ops_per_s, "1/s", ops},
        {"op_p50_us", 1e-3 * w.p50_ns, "us", ops},
        {"op_p99_us", 1e-3 * w.p99_ns, "us", ops, -1.0, ops >= 1000 ? 1 : 0},
        {"mb_per_s", 1e-6 * w.ops_per_s * ratio(t.bytes, ops), "MB/s", ops},
        {"tasks_per_s", w.ops_per_s * ratio(t.tasks, ops), "1/s", ops},
        {"setup_s", median(r.setup_s), "s", static_cast<double>(r.setup_s.size())},
    };
}

std::vector<Metric> per_layer(WorkloadSpec const& spec, WorkloadResult const& r, Ledger const& ledger) {
    std::vector<Metric> m;
    Phase const& t = r.timed;
    Counts const& c = t.counts;
    auto const window_ops = static_cast<double>(r.window_ops);
    // Exact counts come from the fixed window, the rest from the timed phase.
    auto window_count = [&](std::string const& name, std::uint64_t count) {
        m.push_back({name, ratio(count, r.window_ops), "count", window_ops});
    };
    auto per_op = [&](std::string const& name, double count) {
        m.push_back({name, ratio(count, t.ops), "count"});
    };
    auto share = [&](std::string const& name, double part, double whole) {
        m.push_back({name, ratio(part, whole), "ratio"});
    };
    auto probe = [&](std::string const& name, std::string const& unit) {
        m.push_back({name, ledger.values.at(name), unit});
    };

    int unresolved = 0;
    double extra_calls = 0.0;
    for (auto const& form: kamping_forms()) {
        Paired const& pr = ledger.kamping.at(form);
        auto const quads = static_cast<double>(pr.quads);
        m.push_back({"kamping.overhead_ns." + form, pr.value_ns, "ns", quads, pr.band_ns, pr.resolved() ? 1 : 0});
        m.push_back({"kamping.overhead_band_ns." + form, pr.band_ns, "ns", quads});
        unresolved += pr.resolved() ? 0 : 1;
        if (auto it = spec.form_uses.find(form); it != spec.form_uses.end()) {
            extra_calls += it->second * (pr.kamping_calls - pr.raw_calls);
        }
    }
    m.push_back({"kamping.overhead_unresolved", static_cast<double>(unresolved), "count"});
    m.push_back({"kamping.extra_calls_per_op", extra_calls, "count"});

    probe("xmpi.api.entry_ns", "ns");
    window_count("xmpi.api.calls_per_op", r.window.calls);

    probe("xmpi.coll.select_ns", "ns");
    for (char const* op: {"allreduce", "alltoallv", "allgatherv", "bcast"}) {
        probe(std::string("xmpi.coll.") + op + "_us", "us");
    }
    window_count("xmpi.coll.msgs_per_op", spec.collective_ops ? r.window.messages : 0);

    probe("xmpi.transport.self_rtt_ns.8B", "ns");
    probe("xmpi.transport.self_rtt_ns.4KiB", "ns");
    window_count("xmpi.transport.msgs_per_op", r.window.messages);
    share("xmpi.transport.coalesced_frac", c.coalesced, c.messages);
    share("xmpi.transport.rendezvous_frac", c.rendezvous, c.messages);
    per_op("xmpi.transport.ring_full_fallbacks_per_op", c.ring_full_fallbacks);
    share("xmpi.transport.pool_miss_rate", c.pool_misses, c.pool_hits + c.pool_misses);
    // Zero-copied bytes are counted on both the sending and receiving side.
    share("xmpi.transport.zero_copy_frac", c.bytes_zero_copied, 2.0 * c.bytes);
    probe("xmpi.transport.send_us", "us");
    probe("xmpi.transport.copy_ratio", "ratio");
    probe("xmpi.transport.send_us.1MiB", "us");
    probe("xmpi.transport.copy_ratio.1MiB", "ratio");

    probe("xmpi.wait.recv_us", "us");
    double const cpu = t.usage.user_s + t.usage.sys_s;
    share("xmpi.wait.cpu_util", cpu, t.rank_wall_s);
    share("xmpi.wait.sys_frac", t.usage.sys_s, cpu);
    per_op("xmpi.wait.vcsw_per_op", t.usage.vcsw);
    per_op("xmpi.wait.ivcsw_per_op", t.usage.ivcsw);

    probe("xmpi.progress.start_us", "us");
    probe("xmpi.progress.wait_us", "us");
    window_count("xmpi.progress.engine_tasks_per_op", r.window.engine_tasks);
    per_op("xmpi.progress.inline_fallbacks_per_op", c.engine_inline);
    per_op("xmpi.progress.caller_steals_per_op", c.engine_steals);
    per_op("xmpi.progress.stall_escalations_per_op", c.engine_stalls);
    probe("xmpi.persistent.round_us", "us");

    probe("xmpi.rma.cas_ns", "ns");
    probe("xmpi.rma.fetch_op_ns", "ns");
    // Only kasched's ops are tasks; elsewhere the per-task counts are 0.
    double const tasks = std::string(spec.name) == "sched" ? t.tasks : 0.0;
    m.push_back({"xmpi.rma.atomics_per_task", ratio(c.rma_atomics, tasks), "count"});
    m.push_back({"xmpi.rma.epoch_waits_per_task", ratio(c.rma_epoch_waits, tasks), "count"});
    share("apps.kasched.steal_success_ratio", c.steals_succeeded, c.steals_attempted);
    auto stat = [&](char const* name) {
        auto it = r.stats.find(name);
        return it == r.stats.end() ? 0.0 : it->second;
    };
    m.push_back({"apps.kasched.rounds", stat("rounds_per_run"), "count"});
    m.push_back({"apps.kasched.imbalance", stat("imbalance"), "ratio"});

    probe("xmpi.world.spawn_us", "us");

    double const untraced_rate = ratio(t.ops, t.seconds);
    double const traced_rate = ratio(r.traced.ops, r.traced.seconds);
    m.push_back({"trace.overhead_frac", 1.0 - ratio(traced_rate, untraced_rate), "ratio",
                 static_cast<double>(r.traced.ops)});
    // Blocking-path layer time: rank 0's time inside layer calls per traced
    // op, against the untraced op median.
    auto const& inside = r.lanes.front().op_child_sums();
    m.push_back({"layers.attributed_frac", ratio(quantile(inside, 0.5), quantile(t.lat_ns, 0.5)), "ratio",
                 static_cast<double>(inside.size())});
    m.push_back({"threads.census", static_cast<double>(r.census_max), "count"});
    auto const ops = static_cast<double>(t.ops);
    m.push_back({"tail.op_p99_us", 1e-3 * windowed(t).p99_ns, "us", ops, -1.0, ops >= 1000 ? 1 : 0});
    return m;
}

void emit_metrics(Json& json, std::vector<Metric> const& metrics) {
    json.key("metrics").open('{');
    for (auto const& metric: metrics) {
        json.key(metric.name).open('{');
        json.key("value").value(metric.value);
        json.key("unit").value(metric.unit);
        if (metric.samples >= 0) {
            json.key("samples").value(metric.samples);
        }
        if (metric.band >= 0) {
            json.key("band").value(metric.band);
        }
        if (metric.resolved >= 0) {
            json.key("resolved").value(metric.resolved == 1);
        }
        json.close('}');
    }
    json.close('}');
}

/// Self time per layer over all traced ops of every rank.
void emit_layer_spans(Json& json, std::vector<Lane> const& lanes) {
    struct Agg {
        double total_ns = 0.0;
        double count = 0.0;
    };
    std::map<std::string, Agg> by_name;
    double op_self = 0.0;
    double op_count = 0.0;
    std::uint64_t dropped = 0;
    for (auto const& lane: lanes) {
        dropped += lane.dropped;
        for (auto const& span: lane.spans) {
            double const dur = static_cast<double>(span.end_ns - span.start_ns);
            if (span.parent < 0) {
                op_self += dur - static_cast<double>(span.child_ns);
                op_count += 1.0;
            } else {
                auto& agg = by_name[span.name];
                agg.total_ns += dur;
                agg.count += 1.0;
            }
        }
    }
    json.key("trace_spans").open('{');
    json.key("ops").value(op_count);
    json.key("dropped").value(static_cast<double>(dropped));
    json.key("op_self_us_per_op").value(op_count > 0 ? 1e-3 * op_self / op_count : 0.0);
    json.key("layers").open('{');
    for (auto const& [name, agg]: by_name) {
        json.key(name).open('{');
        json.key("calls").value(agg.count);
        json.key("self_us_per_call").value(1e-3 * agg.total_ns / agg.count);
        json.key("self_us_per_op").value(op_count > 0 ? 1e-3 * agg.total_ns / op_count : 0.0);
        json.close('}');
    }
    json.close('}').close('}');
}

int usage(char const* message) {
    std::fprintf(stderr, "perfbench: %s\n", message);
    std::fprintf(
        stderr,
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
}

int run(int argc, char** argv) {
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string const arg = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        std::string const value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') {
                return usage("--seed takes an unsigned integer");
            }
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
                return usage("--seconds takes a number in (0, 600]");
            }
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") {
                return usage("--trace takes 0 or 1");
            }
            options.trace = value == "1";
        } else if (arg == "--trace-out") {
            options.trace_out = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    WorkloadSpec const* spec = have_workload ? find_workload(options.workload) : nullptr;
    if (spec == nullptr) {
        return usage("--workload must name one of: p2p_small, coll_mix, sched");
    }

    int const nproc = host_nproc();
    if (spec->p + static_cast<int>(spec->engine_threads) > nproc) {
        std::fprintf(
            stderr, "perfbench: %s needs %d rank threads + %u engine worker(s), host has %d processors\n",
            spec->name, spec->p, spec->engine_threads, nproc);
        return 1;
    }
    xmpi::progress::Config engine;
    engine.threads = spec->engine_threads;
    xmpi::progress::configure(engine);

    constexpr int kSetupTrials = 511; // plus the set-up of the measured world
    WorkloadResult result = run_workload(*spec, options, options.trace ? 0 : kSetupTrials);
    Ledger ledger;
    bool trace_written = false;
    if (options.trace) {
        ledger = run_probes(*spec);
        if (!options.trace_out.empty()) {
            std::vector<Lane const*> lanes;
            for (auto const& lane: result.lanes) {
                lanes.push_back(&lane);
            }
            trace_written = write_chrome_trace(options.trace_out, lanes, spec->name);
            if (!trace_written) {
                result.errors.push_back("could not write " + options.trace_out);
            }
        }
    }

    bool const census_ok = result.census_max <= nproc;
    if (!census_ok) {
        result.errors.push_back(
            "thread census " + std::to_string(result.census_max) + " exceeds nproc " + std::to_string(nproc));
    }
    bool const correct = result.failed == 0 && result.errors.empty();

    HostInfo const host = host_info();
    Json json;
    json.open('{');
    json.key("workload").value(std::string(spec->name));
    json.key("seed").value(static_cast<double>(options.seed));
    json.key("p").value(static_cast<double>(spec->p));
    json.key("trace").value(options.trace);
    json.key("seconds").value(options.seconds);
    json.key("host").open('{');
    json.key("nproc").value(static_cast<double>(host.nproc));
    json.key("caches").open('{');
    for (auto const& [level, size]: host.caches) {
        json.key(level).value(size);
    }
    json.close('}');
    json.key("compiler").value(host.compiler);
    json.key("build_type").value(host.build_type);
    json.close('}');
    json.key("census").open('{');
    json.key("rank_and_engine_threads_max").value(static_cast<double>(result.census_max));
    json.key("process_threads_max").value(static_cast<double>(result.threads_max));
    json.key("rank_threads").value(static_cast<double>(spec->p));
    json.key("engine_threads_cap").value(static_cast<double>(spec->engine_threads));
    json.key("limit_nproc").value(static_cast<double>(nproc));
    json.key("ok").value(census_ok);
    json.close('}');
    if (!result.setup_s.empty()) {
        json.key("setup_s_quartiles").open('[');
        for (double q: {0.0, 0.25, 0.5, 0.75, 1.0}) {
            json.value(quantile(result.setup_s, q));
        }
        json.close(']');
    }
    json.key("correct").value(correct);
    json.key("attempted").value(static_cast<double>(result.attempted));
    json.key("failed").value(static_cast<double>(result.failed));
    json.key("error_rate").value(ratio(result.failed, result.attempted));
    json.key("errors").open('[');
    for (auto const& error: result.errors) {
        json.value(error);
    }
    json.close(']');
    Windowed const windows = windowed(result.timed);
    emit_metrics(json, options.trace ? per_layer(*spec, result, ledger) : end_to_end(result, windows));
    json.key("window_ops_per_s").open('[');
    for (double rate: windows.rates) {
        json.value(rate);
    }
    json.close(']');
    if (options.trace) {
        emit_layer_spans(json, result.lanes);
        json.key("trace_written").value(trace_written);
        json.key("extra_calls_by_form").open('{');
        for (auto const& [form, pr]: ledger.kamping) {
            json.key(form).value(pr.kamping_calls - pr.raw_calls);
        }
        json.close('}');
    }
    json.close('}');
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
