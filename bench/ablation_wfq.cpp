// Ablation A1 — how closely does the paper's block-quota scheduling track
// ideal weighted fair queueing?
//
// We feed the identical arrival sequence to three disciplines:
//   * SFQ (packet-granularity weighted fair queueing, the Demers et al.
//     reference the paper builds on),
//   * WRR/DRR with per-round quanta equal to the block quotas (what the
//     Multi-Queue Block Generator does at block granularity),
//   * FIFO (vanilla Fabric).
// and report each class's service share over a fully-backlogged window plus
// the worst-case normalized-service gap (the WFQ fairness metric).
//
// Unlike the figure benches this one is purely synthetic (no simulator, no
// RNG), so instead of harness::run_sweep it drives the three disciplines
// directly through common/parallel.h — each discipline is an independent
// work unit writing its own pre-sized result slot.
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "policy/block_formation_policy.h"
#include "wfq/wfq.h"

namespace {

/// Abstracts the three disciplines behind one enqueue/dequeue interface so
/// a single serve loop measures them all.
struct AnyScheduler {
    std::function<void(std::size_t, double, int)> enqueue;
    std::function<std::optional<fl::wfq::Scheduled<int>>()> dequeue;
};

struct DisciplineResult {
    std::array<double, 3> share = {0, 0, 0};
    double worst_gap = 0.0;  ///< max normalized-service gap; NaN = unbounded
};

DisciplineResult serve(AnyScheduler sched, bool track_gap, std::size_t backlog,
                       std::size_t serve_steps,
                       const std::array<double, 3>& weights) {
    for (std::size_t i = 0; i < backlog; ++i) {
        for (std::size_t flow = 0; flow < 3; ++flow) {
            sched.enqueue(flow, 1.0, static_cast<int>(i));
        }
    }
    std::array<double, 3> served = {0, 0, 0};
    DisciplineResult result;
    for (std::size_t step = 1; step <= serve_steps; ++step) {
        const auto item = sched.dequeue();
        served[item->flow] += 1.0;
        if (!track_gap) continue;
        for (std::size_t i = 0; i < 3; ++i) {
            for (std::size_t j = i + 1; j < 3; ++j) {
                const double gap =
                    std::abs(served[i] / weights[i] - served[j] / weights[j]);
                result.worst_gap = std::max(result.worst_gap, gap);
            }
        }
    }
    const double total = served[0] + served[1] + served[2];
    for (std::size_t i = 0; i < 3; ++i) result.share[i] = served[i] / total;
    if (!track_gap) result.worst_gap = std::nan("");
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;

    const auto cli = harness::parse_sweep_cli(argc, argv, 2024, "ablation_wfq");
    if (!cli.trace_path.empty() || !cli.timeseries_path.empty()) {
        // This bench is synthetic (no simulated network), so there is no
        // transaction lifecycle or gauge set to capture.
        std::cout << "note: --trace/--timeseries are ignored by ablation_wfq "
                     "(no simulated network)\n";
    }
    const std::vector<std::uint32_t> weights = {2, 3, 1};
    const policy::BlockFormationPolicy policy(weights);
    const auto fractions = policy.fractions();
    const std::size_t kBacklog = 30'000;  // per class
    const std::size_t kServe = 45'000;
    const std::array<double, 3> w = {2.0, 3.0, 1.0};

    harness::print_banner(std::cout,
                          "Ablation A1: block-quota WFQ vs ideal WFQ vs FIFO",
                          "policy 2:3:1, fully backlogged classes, unit cost");

    // Quantum per round = per-block quota (block size 500).
    const auto quotas = policy.quotas(500);
    const char* names[3] = {"SFQ (ideal WFQ)", "block-quota WRR", "FIFO"};
    const auto make_scheduler = [&](std::size_t d) -> AnyScheduler {
        if (d == 0) {
            auto s = std::make_shared<wfq::WfqScheduler<int>>(
                std::vector<double>{2.0, 3.0, 1.0});
            return {[s](std::size_t f, double c, int i) { s->enqueue(f, c, i); },
                    [s] { return s->dequeue(); }};
        }
        if (d == 1) {
            auto s = std::make_shared<wfq::WrrScheduler<int>>(
                std::vector<double>{static_cast<double>(quotas[0]),
                                    static_cast<double>(quotas[1]),
                                    static_cast<double>(quotas[2])},
                /*base_quantum=*/1.0);
            return {[s](std::size_t f, double c, int i) { s->enqueue(f, c, i); },
                    [s] { return s->dequeue(); }};
        }
        auto s = std::make_shared<wfq::FifoScheduler<int>>();
        return {[s](std::size_t f, double c, int i) { s->enqueue(f, c, i); },
                [s] { return s->dequeue(); }};
    };

    // One independent work unit per discipline, results slotted by index.
    std::vector<DisciplineResult> results(3);
    parallel_for_each(cli.threads, results.size(), [&](std::size_t d) {
        results[d] = serve(make_scheduler(d), /*track_gap=*/d < 2, kBacklog,
                           kServe, w);
    });

    harness::Table table({"discipline", "share hi", "share med", "share lo",
                          "ideal", "worst norm gap (pkts)"});
    for (std::size_t d = 0; d < 3; ++d) {
        table.add_row(
            {names[d], harness::fmt(results[d].share[0], 4),
             harness::fmt(results[d].share[1], 4),
             harness::fmt(results[d].share[2], 4),
             harness::fmt(fractions[0], 4) + "/" + harness::fmt(fractions[1], 4) +
                 "/" + harness::fmt(fractions[2], 4),
             d < 2 ? harness::fmt(results[d].worst_gap, 1)
                   : std::string("unbounded")});
    }
    table.print(std::cout);
    std::cout << "\nSFQ bounds the normalized-service gap by ~one packet per unit "
                 "weight;\nthe block-quota scheduler matches the weighted shares "
                 "exactly over whole\nblocks but allows gaps up to one block quota "
                 "within a block — the paper's\ngranularity trade-off.  FIFO gives "
                 "every class its *arrival* share instead\n(no isolation).\n";

    if (cli.json_enabled) {
        std::ofstream file(cli.json_path);
        if (file) {
            JsonWriter json(file);
            json.begin_object();
            json.field("bench", "ablation_wfq");
            json.key("results");
            json.begin_array();
            for (std::size_t d = 0; d < 3; ++d) {
                json.begin_object();
                json.field("discipline", names[d]);
                json.key("share");
                json.begin_array();
                for (const double s : results[d].share) json.value(s);
                json.end_array();
                json.field("worst_norm_gap", results[d].worst_gap);
                json.end_object();
            }
            json.end_array();
            json.end_object();
            file << "\n";
            std::cout << "per-point JSON written to " << cli.json_path << "\n";
        }
    }
    return 0;
}
