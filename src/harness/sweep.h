// Parallel experiment sweeps with deterministic seeding.
//
// The paper's evaluation is a grid of *independent* simulation runs — block
// policies × peer counts × send rates × fairness weights.  A sweep names
// each grid point (an ExperimentPoint wrapping an ExperimentSpec), and
// run_sweep fans the points across threads with common/parallel.h.
//
// Determinism contract (regression-tested in tests/harness/sweep_test.cpp):
// the same SweepSpec with the same base_seed produces bit-identical results
// — including the serialized BENCH_*.json — at any --threads value, because
//   1. every point's seed is derived from (base_seed, seed_group) via the
//      SplitMix64 random-access derivation in common/rng.h, independent of
//      which worker runs it or when;
//   2. each point owns its Simulator, FabricNetwork and MetricsCollector and
//      writes only its own pre-sized results slot, so output order is the
//      point order, never the completion order;
//   3. nothing in a point reads wall-clock time — all latencies are
//      simulated time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace fl::harness {

/// One grid point of a sweep.
struct ExperimentPoint {
    /// Row label for tables and JSON (e.g. "rate=500/priority").
    std::string label;
    /// Named sweep coordinates, emitted into JSON (e.g. {"send_rate", 500}).
    std::vector<std::pair<std::string, double>> params;
    ExperimentSpec spec;  ///< spec.base_seed is overwritten by the derived seed
    /// Points sharing a seed_group receive the same derived seed — used to
    /// pair a treatment run with the baseline it is normalized against so
    /// both see identical arrival processes.  Default: the point's index.
    std::optional<std::uint64_t> seed_group;
};

struct SweepSpec {
    std::string name;  ///< bench name, e.g. "fig5_send_rate" (JSON header)
    std::vector<ExperimentPoint> points;
    std::uint64_t base_seed = 1000;
    /// Threads running points, the caller included; 0 =
    /// std::thread::hardware_concurrency().
    unsigned threads = 0;
};

struct PointResult {
    std::size_t index = 0;
    std::string label;
    std::vector<std::pair<std::string, double>> params;
    std::uint64_t seed = 0;  ///< derived seed the point actually ran with
    AggregateResult result;
};

/// Seed for a point: the `group`-th output of the SplitMix64 stream seeded
/// with `base_seed` (see fl::derive_seed).
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base_seed,
                                       std::uint64_t group);

/// Runs the points on up to spec.threads threads (one fork-join, see
/// common/parallel.h; the runs inside a point stay serial) and returns
/// results ordered like spec.points.  Throws std::invalid_argument on an
/// ill-formed spec; a point's exception (if any) propagates after in-flight
/// points finish.
[[nodiscard]] std::vector<PointResult> run_sweep(const SweepSpec& spec);

/// Writes the whole sweep as JSON: header (name, base_seed, point count)
/// plus one entry per point with its params, derived seed, aggregate
/// metrics, probe counters and (when kept) per-run metrics dumps.  Bytes
/// depend only on (spec, results), never on --threads or wall-clock.
void write_sweep_json(std::ostream& os, const SweepSpec& spec,
                      const std::vector<PointResult>& results);

// ---------------------------------------------------------------------------
// Command-line front-end shared by the bench drivers.

struct SweepCli {
    unsigned threads = 0;            ///< --threads N (0 = hardware_concurrency)
    std::uint64_t base_seed = 0;     ///< --seed S
    std::string json_path;           ///< --json PATH
    bool json_enabled = true;        ///< --no-json clears it
    std::optional<unsigned> runs;          ///< --runs R (overrides env)
    std::optional<std::uint64_t> total_txs;  ///< --txs T (overrides env)
    std::string trace_path;          ///< --trace PATH (empty = no trace)
    std::string timeseries_path;     ///< --timeseries PATH (empty = none)
    std::size_t trace_point = 0;     ///< --trace-point N (which grid point)
    bool audit = false;              ///< --audit (fairness audit on every point)
    std::uint64_t audit_window_ms = 1000;  ///< --audit-window MS
    bool audit_window_seen = false;  ///< --audit-window appeared explicitly

    [[nodiscard]] unsigned runs_or(unsigned default_runs) const {
        return runs ? *runs : runs_from_env(default_runs);
    }
    [[nodiscard]] std::uint64_t txs_or(std::uint64_t default_total) const {
        return total_txs ? *total_txs : total_txs_from_env(default_total);
    }
    /// The audit configuration selected by --audit/--audit-window (window
    /// default 1000 ms), regardless of whether --audit was passed.
    [[nodiscard]] obs::audit::AuditConfig audit_config() const {
        obs::audit::AuditConfig cfg;
        cfg.window = Duration::millis(static_cast<std::int64_t>(audit_window_ms));
        return cfg;
    }
};

/// Applies cli's audit selection to every point: --audit attaches the
/// default audit config to points that have none; an explicit
/// --audit-window overrides the window of every audited point (including
/// benches that pre-configure their own audit).  No-op otherwise.
void apply_audit_cli(SweepSpec& spec, const SweepCli& cli);

/// Strict base-10 unsigned parser for CLI values: digits only — no sign
/// (so "-1" is rejected instead of wrapping), no whitespace, no trailing
/// garbage — and range-checked.  Returns nullopt on any defect.
[[nodiscard]] std::optional<std::uint64_t> parse_cli_u64(const char* raw);

/// A bench-specific unsigned CLI flag (e.g. scale_state's --accounts),
/// parsed by parse_sweep_cli with the same strict digits-only contract as
/// the shared flags: malformed/out-of-range values print a message plus
/// usage and exit 2.  `value` holds the default going in and the parsed
/// value coming out; `seen` reports whether the flag appeared at all.
struct BenchFlag {
    std::string name;   ///< including dashes, e.g. "--accounts"
    std::string help;   ///< one-line usage text
    std::uint64_t value = 0;
    bool positive = false;  ///< reject 0 ("must be >= 1")
    std::uint64_t max = UINT64_MAX;  ///< inclusive; reject above
    bool seen = false;
};

/// Writes the --help text: one line per bench-specific flag, then the shared
/// flags.  A flag's line states its default once — its own wording when
/// `help` mentions a default, "(default: value)" otherwise.
void write_usage(std::ostream& os, const std::string& bench_name,
                 const std::vector<BenchFlag*>& extra);

/// Parses --threads/--seed/--json/--no-json/--runs/--txs plus the
/// observability flags
/// --trace/--timeseries/--trace-point/--audit/--audit-window/--log-level
/// (--help prints usage and exits; an unknown --log-level name is rejected
/// at the CLI).  Malformed numbers and zero/negative --threads/--runs/--txs
/// print a clear message and exit with code 2, as do malformed FAIRLEDGER_*
/// fallbacks of --runs/--txs.  `bench_name` sets the default JSON path
/// (BENCH_local_<name>.json) and `default_seed` the default --seed.
[[nodiscard]] SweepCli parse_sweep_cli(int argc, char** argv,
                                       std::uint64_t default_seed,
                                       const std::string& bench_name);

/// Overload taking bench-specific flags; each matched flag's `value`/`seen`
/// is updated in place and its help line joins the --help text.
[[nodiscard]] SweepCli parse_sweep_cli(int argc, char** argv,
                                       std::uint64_t default_seed,
                                       const std::string& bench_name,
                                       const std::vector<BenchFlag*>& extra);

/// Writes the sweep JSON to cli.json_path unless --no-json; announces the
/// path on `status` (stdout in the benches).  Returns true when written.
bool emit_sweep_json(const SweepCli& cli, const SweepSpec& spec,
                     const std::vector<PointResult>& results,
                     std::ostream& status);

// ---------------------------------------------------------------------------
// Trace / time-series capture for bench drivers.

/// State for capturing one instrumented run out of a sweep: the trace sink
/// plus (when requested) the sampling recorder.  Must outlive run_sweep.
/// Only run 0 of the selected point is instrumented, so the capture sees a
/// single network and the bytes are independent of --threads (the sink is
/// only touched from the worker that owns that point, and run_sweep joins
/// all workers before the files are written).
struct TraceCapture {
    obs::TraceSink sink;
    std::unique_ptr<obs::TimeSeriesRecorder> recorder;
    /// Simulated-time sampling cadence for --timeseries.
    Duration cadence = Duration::millis(100);
};

/// Installs an instrument hook on the point selected by cli.trace_point when
/// --trace and/or --timeseries were given; no-op otherwise.  An out-of-range
/// --trace-point falls back to point 0 with a warning on `status`.
void arm_trace_capture(SweepSpec& spec, const SweepCli& cli,
                       TraceCapture& capture, std::ostream& status);

/// Writes the captured trace (Chrome trace-event JSON, or JSONL when the
/// path ends in ".jsonl") and/or the time-series JSONL after the sweep
/// completes.  Returns true if any file was written.
bool emit_trace_files(const SweepCli& cli, const TraceCapture& capture,
                      std::ostream& status);

}  // namespace fl::harness
