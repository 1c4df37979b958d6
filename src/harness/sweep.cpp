#include "harness/sweep.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace fl::harness {

std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t group) {
    return derive_seed(base_seed, group);
}

std::vector<PointResult> run_sweep(const SweepSpec& spec) {
    for (const auto& point : spec.points) {
        if (!point.spec.make_workload) {
            throw std::invalid_argument("run_sweep: point '" + point.label +
                                        "' has no workload factory");
        }
    }
    std::vector<PointResult> results(spec.points.size());
    ThreadPool pool(spec.threads);
    parallel_for_each(pool, spec.points.size(), [&](std::size_t i) {
        const ExperimentPoint& point = spec.points[i];
        ExperimentSpec run_spec = point.spec;
        const std::uint64_t group =
            point.seed_group ? *point.seed_group : static_cast<std::uint64_t>(i);
        run_spec.base_seed = point_seed(spec.base_seed, group);

        PointResult& out = results[i];  // pre-sized slot: order == point order
        out.index = i;
        out.label = point.label;
        out.params = point.params;
        out.seed = run_spec.base_seed;
        out.result = run_experiment(run_spec);
    });
    return results;
}

namespace {

void write_aggregator(JsonWriter& json, const RunAggregator& agg) {
    json.begin_object();
    json.field("mean", agg.mean());
    json.field("ci95", agg.ci95_half_width());
    json.field("runs", agg.runs());
    json.end_object();
}

void write_point(JsonWriter& json, const PointResult& point) {
    json.begin_object();
    json.field("index", static_cast<std::uint64_t>(point.index));
    json.field("label", point.label);
    json.key("params");
    json.begin_object();
    for (const auto& [name, value] : point.params) {
        json.field(name, value);
    }
    json.end_object();
    json.field("seed", point.seed);

    const AggregateResult& r = point.result;
    json.key("avg_latency_s");
    write_aggregator(json, r.overall_latency);
    json.key("throughput_tps");
    write_aggregator(json, r.throughput_tps);
    json.key("blocks_per_run");
    write_aggregator(json, r.blocks_per_run);

    json.key("latency_by_priority_s");
    json.begin_object();
    for (const auto& [level, agg] : r.latency_by_priority) {
        json.key(level == kUnassignedPriority ? "unassigned"
                                              : std::to_string(level));
        write_aggregator(json, agg);
    }
    json.end_object();

    json.key("latency_by_client_s");
    json.begin_object();
    for (const auto& [client, agg] : r.latency_by_client) {
        json.key(std::to_string(client));
        write_aggregator(json, agg);
    }
    json.end_object();

    json.key("phase_means_by_priority_s");
    json.begin_object();
    for (const auto& [level, phases] : r.phases_by_priority) {
        json.key(level == kUnassignedPriority ? "unassigned"
                                              : std::to_string(level));
        json.begin_object();
        json.field("endorsement", phases.endorsement.mean());
        json.field("ordering", phases.ordering.mean());
        json.field("validation", phases.validation.mean());
        json.field("notification", phases.notification.mean());
        json.end_object();
    }
    json.end_object();

    json.field("total_committed", r.total_committed);
    json.field("total_invalid", r.total_invalid);
    json.field("total_client_failures", r.total_client_failures);
    json.field("total_consolidation_failures", r.total_consolidation_failures);
    json.field("all_consistent", r.all_consistent);

    if (!r.extra.empty()) {
        json.key("extra");
        json.begin_object();
        for (const auto& [name, agg] : r.extra) {
            json.key(name);
            write_aggregator(json, agg);
        }
        json.end_object();
    }
    if (!r.run_metrics_json.empty()) {
        // Pre-rendered by core::write_metrics_json; splice verbatim so the
        // per-run dump matches what a single run would emit.
        json.key("runs_detail");
        json.begin_array();
        for (const auto& dump : r.run_metrics_json) {
            json.raw(dump);
        }
        json.end_array();
    }
    if (!r.audit_reports.empty()) {
        json.key("audit_runs");
        json.begin_array();
        for (const auto& report : r.audit_reports) {
            obs::audit::write_audit_json(json, report);
        }
        json.end_array();
    }
    json.end_object();
}

}  // namespace

void write_sweep_json(std::ostream& os, const SweepSpec& spec,
                      const std::vector<PointResult>& results) {
    JsonWriter json(os);
    json.begin_object();
    json.field("bench", spec.name);
    json.field("base_seed", spec.base_seed);
    json.field("points", static_cast<std::uint64_t>(results.size()));
    json.key("results");
    json.begin_array();
    for (const auto& point : results) {
        write_point(json, point);
    }
    json.end_array();
    json.end_object();
    os << "\n";
}

void write_usage(std::ostream& os, const std::string& bench_name,
                 const std::vector<BenchFlag*>& extra) {
    os << "usage: " << bench_name << " [options]\n";
    for (const BenchFlag* flag : extra) {
        os << "  " << flag->name << " N   " << flag->help;
        // A help text that already states its default keeps its own wording.
        if (flag->help.find("default") == std::string::npos) {
            os << " (default: " << flag->value << ")";
        }
        os << "\n";
    }
    os
       << "  --threads N   worker threads for the sweep "
          "(default: hardware concurrency)\n"
       << "  --seed S      base seed; every point's seed derives from it "
          "(deterministic)\n"
       << "  --runs R      repetitions per point (default: FAIRLEDGER_RUNS "
          "or the bench default)\n"
       << "  --txs T       transactions per run (default: "
          "FAIRLEDGER_TOTAL_TXS or the bench default)\n"
       << "  --json PATH   per-point JSON output path "
          "(default: BENCH_local_" << bench_name << ".json)\n"
       << "  --no-json     disable the JSON output\n"
       << "  --trace PATH  capture a per-transaction lifecycle trace of one "
          "run\n"
       << "                (Chrome trace-event JSON for Perfetto; compact "
          "JSONL when\n"
       << "                PATH ends in .jsonl)\n"
       << "  --timeseries PATH  sample queue/WFQ/validator gauges on a "
          "simulated-time\n"
       << "                cadence into a JSONL file\n"
       << "  --trace-point N  grid point to instrument (default: 0; run 0 "
          "of it)\n"
       << "  --audit       attach the fairness-audit accountant to every "
          "point\n"
       << "  --audit-window MS  audit window in simulated milliseconds "
          "(default: 1000;\n"
       << "                implies nothing by itself — combine with --audit "
          "or a bench\n"
       << "                that pre-configures auditing)\n"
       << "  --log-level L  stderr log level: trace|debug|info|warn|error|off\n"
       << "  --help        this text\n";
}

namespace {

[[noreturn]] void usage(const std::string& bench_name, int exit_code,
                        const std::vector<BenchFlag*>& extra = {}) {
    write_usage(exit_code == 0 ? std::cout : std::cerr, bench_name, extra);
    std::exit(exit_code);
}

std::uint64_t parse_u64(const std::string& flag, const char* raw,
                        const std::string& bench_name,
                        const std::vector<BenchFlag*>& extra = {}) {
    if (raw == nullptr || *raw == '\0') {
        std::cerr << flag << ": missing value\n";
        usage(bench_name, 2, extra);
    }
    const std::optional<std::uint64_t> v = parse_cli_u64(raw);
    if (!v) {
        std::cerr << flag << ": not a non-negative integer: " << raw << "\n";
        usage(bench_name, 2, extra);
    }
    return *v;
}

/// For counts that must be >= 1 (--threads/--runs/--txs): zero — including
/// a "-1" the old strtoull parser would have wrapped to huge — is an error.
std::uint64_t parse_positive_u64(const std::string& flag, const char* raw,
                                 const std::string& bench_name,
                                 const std::vector<BenchFlag*>& extra = {}) {
    const std::uint64_t v = parse_u64(flag, raw, bench_name, extra);
    if (v == 0) {
        std::cerr << flag << ": must be >= 1\n";
        usage(bench_name, 2, extra);
    }
    return v;
}

}  // namespace

std::optional<std::uint64_t> parse_cli_u64(const char* raw) {
    if (raw == nullptr) return std::nullopt;
    return parse_unsigned<std::uint64_t>(raw);
}

SweepCli parse_sweep_cli(int argc, char** argv, std::uint64_t default_seed,
                         const std::string& bench_name) {
    return parse_sweep_cli(argc, argv, default_seed, bench_name, {});
}

SweepCli parse_sweep_cli(int argc, char** argv, std::uint64_t default_seed,
                         const std::string& bench_name,
                         const std::vector<BenchFlag*>& extra) {
    SweepCli cli;
    cli.base_seed = default_seed;
    cli.json_path = "BENCH_local_" + bench_name + ".json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage(bench_name, 0, extra);
        } else if (arg == "--threads") {
            cli.threads = static_cast<unsigned>(
                parse_positive_u64(arg, next(), bench_name, extra));
        } else if (arg == "--seed") {
            cli.base_seed = parse_u64(arg, next(), bench_name, extra);
        } else if (arg == "--runs") {
            cli.runs = static_cast<unsigned>(
                parse_positive_u64(arg, next(), bench_name, extra));
        } else if (arg == "--txs") {
            cli.total_txs = parse_positive_u64(arg, next(), bench_name, extra);
        } else if (arg == "--json") {
            const char* path = next();
            if (path == nullptr) {
                std::cerr << "--json: missing path\n";
                usage(bench_name, 2, extra);
            }
            cli.json_path = path;
        } else if (arg == "--no-json") {
            cli.json_enabled = false;
        } else if (arg == "--trace") {
            const char* path = next();
            if (path == nullptr || *path == '\0') {
                std::cerr << "--trace: missing path\n";
                usage(bench_name, 2, extra);
            }
            cli.trace_path = path;
        } else if (arg == "--timeseries") {
            const char* path = next();
            if (path == nullptr || *path == '\0') {
                std::cerr << "--timeseries: missing path\n";
                usage(bench_name, 2, extra);
            }
            cli.timeseries_path = path;
        } else if (arg == "--audit") {
            cli.audit = true;
        } else if (arg == "--audit-window") {
            cli.audit_window_ms =
                parse_positive_u64(arg, next(), bench_name, extra);
            cli.audit_window_seen = true;
        } else if (arg == "--trace-point") {
            cli.trace_point = static_cast<std::size_t>(
                parse_u64(arg, next(), bench_name, extra));
        } else if (arg == "--log-level") {
            const char* name = next();
            if (name == nullptr || *name == '\0') {
                std::cerr << "--log-level: missing value\n";
                usage(bench_name, 2, extra);
            }
            const std::optional<LogLevel> level = parse_log_level(name);
            if (!level) {
                std::cerr << "--log-level: unknown level '" << name
                          << "' (expected trace|debug|info|warn|error|off)\n";
                usage(bench_name, 2, extra);
            }
            set_log_level(*level);
        } else {
            BenchFlag* matched = nullptr;
            for (BenchFlag* flag : extra) {
                if (arg == flag->name) {
                    matched = flag;
                    break;
                }
            }
            if (matched == nullptr) {
                std::cerr << "unknown option: " << arg << "\n";
                usage(bench_name, 2, extra);
            }
            const std::uint64_t v =
                matched->positive
                    ? parse_positive_u64(arg, next(), bench_name, extra)
                    : parse_u64(arg, next(), bench_name, extra);
            if (v > matched->max) {
                std::cerr << arg << ": must be <= " << matched->max << "\n";
                usage(bench_name, 2, extra);
            }
            matched->value = v;
            matched->seen = true;
        }
    }
    try {  // the env fallbacks of --runs/--txs exit 2 like a malformed flag
        if (!cli.runs) (void)runs_from_env(1);
        if (!cli.total_txs) (void)total_txs_from_env(1);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        usage(bench_name, 2, extra);
    }
    return cli;
}

void apply_audit_cli(SweepSpec& spec, const SweepCli& cli) {
    if (!cli.audit && !cli.audit_window_seen) return;
    for (ExperimentPoint& point : spec.points) {
        if (cli.audit && !point.spec.audit) {
            point.spec.audit = cli.audit_config();
        } else if (cli.audit_window_seen && point.spec.audit) {
            point.spec.audit->window =
                Duration::millis(static_cast<std::int64_t>(cli.audit_window_ms));
        }
    }
}

bool emit_sweep_json(const SweepCli& cli, const SweepSpec& spec,
                     const std::vector<PointResult>& results,
                     std::ostream& status) {
    if (!cli.json_enabled) return false;
    std::ofstream file(cli.json_path);
    if (!file) {
        status << "WARNING: cannot open JSON output path " << cli.json_path
               << "\n";
        return false;
    }
    write_sweep_json(file, spec, results);
    status << "per-point JSON written to " << cli.json_path << "\n";
    return true;
}

void arm_trace_capture(SweepSpec& spec, const SweepCli& cli,
                       TraceCapture& capture, std::ostream& status) {
    const bool want_trace = !cli.trace_path.empty();
    const bool want_series = !cli.timeseries_path.empty();
    if ((!want_trace && !want_series) || spec.points.empty()) return;

    std::size_t idx = cli.trace_point;
    if (idx >= spec.points.size()) {
        status << "WARNING: --trace-point " << idx << " out of range ("
               << spec.points.size() << " points); tracing point 0\n";
        idx = 0;
    }
    status << "instrumenting point " << idx << " ('" << spec.points[idx].label
           << "'), run 0\n";

    // Only run 0 of one point attaches — one network, one worker, so the
    // capture needs no locking and the bytes cannot depend on --threads.
    // An instrument hook the bench already installed (e.g. scale_state's
    // account seeding) keeps running: chain, don't replace.
    spec.points[idx].spec.instrument =
        [&capture, want_trace, want_series,
         prev = std::move(spec.points[idx].spec.instrument)](
            core::FabricNetwork& net, unsigned run) {
            if (prev) prev(net, run);
            if (run != 0) return;
            if (want_trace) net.set_trace_sink(&capture.sink);
            if (want_series) {
                obs::MetricRegistry registry;
                net.register_metrics(registry);
                capture.recorder = std::make_unique<obs::TimeSeriesRecorder>(
                    net.simulator(), std::move(registry), capture.cadence);
                capture.recorder->start();
            }
        };
}

bool emit_trace_files(const SweepCli& cli, const TraceCapture& capture,
                      std::ostream& status) {
    bool wrote = false;
    if (!cli.trace_path.empty()) {
        std::ofstream file(cli.trace_path);
        if (!file) {
            status << "WARNING: cannot open trace output path "
                   << cli.trace_path << "\n";
        } else {
            if (cli.trace_path.size() >= 6 &&
                cli.trace_path.compare(cli.trace_path.size() - 6, 6,
                                       ".jsonl") == 0) {
                capture.sink.write_jsonl(file);
            } else {
                capture.sink.write_chrome_json(file);
            }
            status << "trace (" << capture.sink.size() << " events) written to "
                   << cli.trace_path << "\n";
            wrote = true;
        }
    }
    if (!cli.timeseries_path.empty()) {
        if (!capture.recorder) {
            status << "WARNING: no time-series captured (instrumented run "
                      "never executed?); skipping " << cli.timeseries_path
                   << "\n";
        } else {
            std::ofstream file(cli.timeseries_path);
            if (!file) {
                status << "WARNING: cannot open time-series output path "
                       << cli.timeseries_path << "\n";
            } else {
                capture.recorder->write_jsonl(file);
                status << "time series (" << capture.recorder->samples().size()
                       << " samples) written to " << cli.timeseries_path
                       << "\n";
                wrote = true;
            }
        }
    }
    return wrote;
}

}  // namespace fl::harness
