// Channel-scaling sweep + serial-vs-parallel equivalence gate (A10).
//
// Sweeps the channel count 1 → 16 (paper-default per-channel config and
// workload) and runs every point through core::MultiChannelNetwork twice:
//
//   serial    — 1 thread drains the channels one after another, in index
//               order;
//   parallel  — --threads threads share the channels, each channel drained
//               whole by one thread.
//
// Per point it compares every per-channel artifact byte for byte: the
// metrics JSON, the trace JSONL, the chain/state fingerprints, the event
// count and the cross-channel meter totals.  Any divergence prints CHANNEL
// EQUIVALENCE VIOLATION and exits 1 — the thread count is never an
// observable (DESIGN.md §16).  The 1-channel point is additionally
// compared against a single-network harness::run_once on the same seed:
// same metrics JSON, same (untagged) trace bytes, same fingerprints.
//
// Flags: the shared sweep CLI plus --channels N (largest channel count,
// default 16).
//
// Wall-clock timings and the speedup column are host-dependent and stay on
// stdout only; the BENCH_*.json bytes depend on --seed alone.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fig_common.h"
#include "common/json.h"
#include "common/parallel.h"
#include "harness/channels.h"
#include "obs/trace.h"

namespace {

using Clock = std::chrono::steady_clock;

std::string hex64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct EngineRun {
    fl::harness::MultiChannelResult result;
    double wall = 0.0;  ///< host-dependent; stdout only, never JSON
};

EngineRun run_engine(const fl::harness::MultiChannelSpec& spec,
                     unsigned threads) {
    EngineRun er;
    const auto started = Clock::now();
    er.result = fl::harness::run_multi_channel(spec, threads);
    er.wall = std::chrono::duration<double>(Clock::now() - started).count();
    return er;
}

/// Byte/field comparison of two engine results; returns human-readable
/// divergence descriptions (empty = equivalent).
std::vector<std::string> diff_runs(const fl::harness::MultiChannelResult& a,
                                   const fl::harness::MultiChannelResult& b) {
    std::vector<std::string> diffs;
    if (a.channels.size() != b.channels.size()) {
        diffs.push_back("channel count mismatch");
        return diffs;
    }
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        const auto& ca = a.channels[i];
        const auto& cb = b.channels[i];
        const std::string tag = "ch" + std::to_string(ca.id.value());
        if (ca.metrics_json != cb.metrics_json) diffs.push_back(tag + " metrics JSON");
        if (ca.trace_jsonl != cb.trace_jsonl) diffs.push_back(tag + " trace JSONL");
        if (ca.chain_fingerprint != cb.chain_fingerprint) {
            diffs.push_back(tag + " chain fingerprint");
        }
        if (ca.state_fingerprint != cb.state_fingerprint) {
            diffs.push_back(tag + " state fingerprint");
        }
        if (ca.blocks != cb.blocks) diffs.push_back(tag + " block height");
        if (!ca.consistent() || !cb.consistent()) diffs.push_back(tag + " inconsistent");
    }
    if (a.events_executed != b.events_executed) diffs.push_back("event count");
    if (a.meter.committed_per_channel != b.meter.committed_per_channel ||
        a.meter.completed_per_client != b.meter.completed_per_client ||
        a.meter.endorse_cpu_per_org != b.meter.endorse_cpu_per_org) {
        diffs.push_back("meter cumulative totals");
    }
    return diffs;
}

/// The 1-channel gate: a 1-channel run's only channel must emit the
/// exact bytes of a single-network run_once on the same seed.
std::vector<std::string> diff_vs_legacy(
    const fl::harness::ChannelRunResult& ch, const fl::core::NetworkConfig& cfg,
    const std::function<fl::harness::Workload()>& make_workload,
    std::uint64_t seed) {
    fl::harness::ExperimentSpec spec;
    spec.config = cfg;
    spec.make_workload = make_workload;
    fl::obs::TraceSink sink;
    spec.instrument = [&sink](fl::core::FabricNetwork& net, unsigned) {
        net.set_trace_sink(&sink);
    };
    const fl::harness::RunResult legacy = fl::harness::run_once(spec, seed);

    std::vector<std::string> diffs;
    if (ch.metrics_json != fl::harness::metrics_json(legacy)) diffs.push_back("legacy metrics JSON");
    std::ostringstream trace_os;
    sink.write_jsonl(trace_os);
    if (ch.trace_jsonl != trace_os.str()) diffs.push_back("legacy trace JSONL");
    if (ch.chain_fingerprint != legacy.chain_fingerprint) diffs.push_back("legacy chain fingerprint");
    if (ch.state_fingerprint != legacy.state_fingerprint) diffs.push_back("legacy state fingerprint");
    return diffs;
}

}  // namespace

int main(int argc, char** argv) {
    fl::harness::BenchFlag channels_flag{
        "--channels", "largest channel count", 16,
        /*positive=*/true, /*max=*/64};
    const fl::harness::SweepCli cli = fl::harness::parse_sweep_cli(
        argc, argv, /*default_seed=*/42, "scale_channels",
        {&channels_flag});

    const std::uint64_t txs_per_channel = cli.txs_or(3000);
    const double tps = 500.0;

    std::vector<std::size_t> counts;
    for (std::size_t c : {1u, 2u, 4u, 8u, 16u}) {
        if (c <= channels_flag.value) counts.push_back(c);
    }

    fl::harness::print_banner(
        std::cout, "scale_channels: multi-channel drain scaling",
        "serial vs parallel byte equivalence at every channel count");

    const unsigned threads = fl::resolve_threads(cli.threads);

    fl::harness::Table table({"channels", "committed", "jain(ch)",
                              "jain(client)", "serial s*", "parallel s*",
                              "speedup*", "equal"});

    std::ostringstream json;
    fl::JsonWriter jw(json);
    jw.begin_object();
    jw.field("bench", "scale_channels");
    jw.field("base_seed", cli.base_seed);
    jw.field("txs_per_channel", txs_per_channel);
    jw.key("points");
    jw.begin_array();

    bool all_ok = true;
    const auto started = Clock::now();
    for (const std::size_t n : counts) {
        fl::harness::MultiChannelSpec spec;
        spec.config = fl::core::MultiChannelConfig::uniform(
            fl::bench::paper_config(/*priority_enabled=*/true), n);
        const std::size_t clients = spec.config.base.clients;
        spec.make_workload = [clients, tps, txs_per_channel](std::size_t) {
            return fl::bench::paper_workload(clients, tps, txs_per_channel);
        };
        spec.seed = cli.base_seed;
        spec.capture_trace = true;

        const EngineRun serial = run_engine(spec, 1);
        const EngineRun parallel = run_engine(spec, threads);

        std::vector<std::string> diffs =
            diff_runs(serial.result, parallel.result);
        if (n == 1) {
            const auto make_one = [&spec] { return spec.make_workload(0); };
            const auto legacy_diffs =
                diff_vs_legacy(parallel.result.channels[0],
                               spec.config.channel_config(0), make_one,
                               spec.seed);
            diffs.insert(diffs.end(), legacy_diffs.begin(), legacy_diffs.end());
        }
        for (const std::string& d : diffs) {
            std::cout << "DIVERGENCE (" << n << " channels): " << d << "\n";
        }
        const bool ok = diffs.empty();
        all_ok = all_ok && ok;

        const auto& meter = parallel.result.meter;
        std::uint64_t committed = 0;
        for (const std::uint64_t c : meter.committed_per_channel) committed += c;

        table.add_row(
            {std::to_string(n), std::to_string(committed),
             fl::harness::fmt(meter.channel_jain_overall(), 3),
             fl::harness::fmt(meter.client_jain_overall(), 3),
             fl::harness::fmt(serial.wall, 2), fl::harness::fmt(parallel.wall, 2),
             fl::harness::fmt(parallel.wall > 0.0 ? serial.wall / parallel.wall
                                                  : 0.0,
                              2),
             ok ? "OK" : "MISMATCH"});

        jw.begin_object();
        jw.field("channels", static_cast<std::uint64_t>(n));
        jw.field("events", parallel.result.events_executed);
        jw.field("committed_total", committed);
        jw.key("committed_per_channel");
        jw.begin_array();
        for (const std::uint64_t c : meter.committed_per_channel) jw.value(c);
        jw.end_array();
        jw.field("channel_jain", meter.channel_jain_overall());
        jw.field("client_jain", meter.client_jain_overall());
        jw.field("org_cpu_jain", meter.org_cpu_jain_overall());
        jw.key("chain_fingerprints");
        jw.begin_array();
        for (const auto& ch : parallel.result.channels) {
            jw.value(hex64(ch.chain_fingerprint));
        }
        jw.end_array();
        jw.field("equal", ok);
        jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    json << "\n";

    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(Clock::now() - started).count();
    std::cout << "\n*wall-clock columns are host-dependent (stdout only, never "
                 "JSON).  Threads: "
              << threads << ".\n";
    fl::harness::print_sweep_footer(std::cout, counts.size(), threads, wall);

    if (cli.json_enabled && !cli.json_path.empty()) {
        std::ofstream out(cli.json_path);
        out << json.str();
        std::cout << "wrote " << cli.json_path << "\n";
    }

    if (!all_ok) {
        std::cout << "CHANNEL EQUIVALENCE VIOLATION (see divergences above)\n";
        return 1;
    }
    return 0;
}
