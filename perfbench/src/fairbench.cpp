// fairbench — runs one benchmark workload in this process and prints one
// JSON object with its host timings, simulated metrics, fingerprints and
// provenance.  perfbench/run.py drives it; see perfbench/README.md.
//
//   fairbench --workload NAME --seed N --mode plain|audited|traced|sweep
//             [--spans PATH]
//
// Modes:
//   plain    kRunsPerProcess times: the workload's timed set-ups, then a
//            run of the last network timed in 250 ms chunks of simulated
//            time.  Host times here are thread CPU seconds.
//   audited  one run with the fairness audit attached over the arrival
//            phase (share_jain).
//   traced   the per-layer run: a plain run, a step loop that times every
//            event and attributes it to its node's role, a run with a
//            trace sink (simulated stations), an audited run, and the layer
//            replay on the plain run's chain.
//   sweep    the paper_sweep grid through harness::run_sweep with every run
//            timed from outside, then the grid once more on one thread.
//
// A failed correctness check prints "check failed: <name>" on stderr and
// exits 3; bad arguments exit 2.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "common/json.h"
#include "core/fabric_network.h"
#include "core/metrics.h"
#include "crypto/sha256.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "obs/audit/audit.h"
#include "obs/audit/fairness.h"
#include "obs/trace.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace fl;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds of the calling thread.  A workload runs on one thread, so
/// this is its host time without the time the host gave the CPU to others.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "fairbench: " << why << "\n"
              << "usage: fairbench --workload paper_knee|wide_endorse|zipf_contended|"
                 "paper_sweep --seed N --mode plain|audited|traced|sweep "
                 "[--spans PATH]\n";
    std::exit(2);
}

struct Args {
    WorkloadId workload = WorkloadId::kPaperKnee;
    std::uint64_t seed = 0;
    std::string mode;
    std::string spans_path;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const char* value = argv[++i];
        if (flag == "--workload") {
            const auto id = parse_workload(value);
            if (!id) usage(std::string("unknown workload ") + value);
            a.workload = *id;
            have_workload = true;
        } else if (flag == "--seed") {
            const auto v = harness::parse_cli_u64(value);
            if (!v) usage("bad value for --seed");
            a.seed = *v;
            have_seed = true;
        } else if (flag == "--mode") {
            a.mode = value;
            if (a.mode != "plain" && a.mode != "audited" && a.mode != "traced" &&
                a.mode != "sweep") {
                usage("unknown mode " + a.mode);
            }
        } else if (flag == "--spans") {
            a.spans_path = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || a.mode.empty()) {
        usage("--workload, --seed and --mode are required");
    }
    if ((a.mode == "sweep") != (a.workload == WorkloadId::kPaperSweep)) {
        usage("paper_sweep runs in --mode sweep, the others in the other modes");
    }
    return a;
}

/// Failed correctness checks; the process exits 3 if any remain at the end.
std::vector<std::string> g_failures;

void check(bool ok, const std::string& name) {
    if (!ok && std::find(g_failures.begin(), g_failures.end(), name) == g_failures.end()) {
        g_failures.push_back(name);
    }
}

/// VmHWM of this process in MiB.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// ---------------------------------------------------------------------------
// One network run, built from outside through the public API.

struct LiveRun {
    RunSpec spec;
    std::unique_ptr<core::FabricNetwork> net;
    std::vector<client::TxRecord> records;
    std::unique_ptr<harness::WorkloadDriver> driver;
    /// Thread-CPU seconds of constructor + sink + seeding + driver start.
    double setup_cpu_s = 0.0;
    double seed_s = 0.0;  ///< wall seconds of the seeding part alone
    double run_s = 0.0;   ///< wall seconds of net.run() or the step loop
};

std::unique_ptr<LiveRun> set_up(const RunSpec& spec) {
    auto run = std::make_unique<LiveRun>();
    run->spec = spec;
    run->records.reserve(spec.total_txs);
    const double start = thread_cpu_s();
    run->net = std::make_unique<core::FabricNetwork>(spec.config);
    run->net->set_tx_sink(
        [r = run.get()](const client::TxRecord& rec) { r->records.push_back(rec); });
    const auto seed_start = Clock::now();
    seed_state(spec, *run->net);
    run->seed_s = since(seed_start);
    run->driver = std::make_unique<harness::WorkloadDriver>(
        *run->net, make_workload(spec), Rng(spec.workload_seed));
    run->driver->start();
    run->setup_cpu_s = thread_cpu_s() - start;
    return run;
}

void run_plain(LiveRun& run) {
    const auto start = Clock::now();
    run.net->run();
    run.run_s = since(start);
}

/// Simulated span of one timed chunk of a run.
constexpr Duration kChunk = Duration::millis(250);

/// Drains the run in fixed simulated-time chunks and returns the thread-CPU
/// seconds of each.  The event sequence is the same as run()'s, so a chunk
/// of a seed does identical work in every repetition.
std::vector<double> run_chunked(LiveRun& run) {
    std::vector<double> chunks;
    TimePoint until = TimePoint::origin();
    while (run.net->next_event_time() != TimePoint::max()) {
        until += kChunk;
        const double start = thread_cpu_s();
        run.net->advance_until(until);
        chunks.push_back(thread_cpu_s() - start);
    }
    return chunks;
}

/// Simulated results of a run: deterministic in (workload, seed), so every
/// repetition, traced or not, must reproduce them bit for bit.
struct SimResult {
    std::map<std::string, double> values;
    std::map<std::string, std::uint64_t> fingerprints;
};

void put_tail(SimResult& s, const std::string& name, const std::vector<double>& xs,
              double p) {
    const TailStat t = tail_percentile(xs, p);
    s.values[name] = t.value;
    s.values[name + ".p"] = t.p;
    s.values[name + ".n"] = static_cast<double>(t.n);
    s.values[name + ".beyond"] = static_cast<double>(t.beyond);
}

/// Latency and validity metrics over terminal records.
void record_metrics(SimResult& s, const std::vector<const client::TxRecord*>& records,
                    std::uint64_t submitted, PriorityLevel lowest,
                    double committed_tps) {
    std::uint64_t valid = 0;
    std::uint64_t invalid = 0;
    std::uint64_t client_failures = 0;
    std::vector<double> lat;
    std::vector<double> high;
    std::vector<double> low;
    std::vector<double> endorse;
    std::vector<double> ordering;
    std::vector<double> validation;
    std::vector<double> notify;
    for (const client::TxRecord* r : records) {
        if (r->failed_before_ordering) {
            ++client_failures;
            continue;
        }
        if (!is_valid(r->code)) {
            ++invalid;
            continue;
        }
        ++valid;
        const double l = r->latency().as_seconds();
        lat.push_back(l);
        if (r->priority == 0) high.push_back(l);
        if (r->priority == lowest) low.push_back(l);
        endorse.push_back(r->endorsement_phase().as_seconds());
        ordering.push_back(r->ordering_phase().as_seconds());
        validation.push_back(r->validation_phase().as_seconds());
        notify.push_back(r->notification_phase().as_seconds());
    }
    s.values["submitted"] = static_cast<double>(submitted);
    s.values["terminal"] = static_cast<double>(records.size());
    s.values["valid"] = static_cast<double>(valid);
    s.values["invalid"] = static_cast<double>(invalid);
    s.values["client_failures"] = static_cast<double>(client_failures);
    put_tail(s, "commit_p50_s", lat, 50.0);
    put_tail(s, "commit_p99_s", lat, 99.0);
    put_tail(s, "high_commit_p99_s", high, 99.0);
    put_tail(s, "low_commit_p99_s", low, 99.0);
    s.values["committed_tps"] = committed_tps;
    s.values["fail_ratio"] = fail_ratio(invalid, client_failures, submitted);
    s.values["valid_ratio"] = static_cast<double>(valid) / static_cast<double>(submitted);
    s.values["peer.endorse_phase_p50_s"] = tail_percentile(endorse, 50.0).value;
    s.values["orderer.ordering_phase_p50_s"] = tail_percentile(ordering, 50.0).value;
    s.values["peer.validate_phase_p50_s"] = tail_percentile(validation, 50.0).value;
    s.values["client.notify_phase_p50_s"] = tail_percentile(notify, 50.0).value;
}

/// Correctness checks on a drained run plus its simulated results.
SimResult finish(LiveRun& run) {
    core::FabricNetwork& net = *run.net;
    check(net.chains_identical(), "peer chains identical");
    check(net.states_identical(), "peer world states identical");
    check(net.osn_blocks_identical(), "OSN block sequences identical");
    for (const auto& p : net.peers()) {
        check(p->chain().verify_chain(), "BlockStore::verify_chain");
    }
    // Exactly one terminal record per submitted transaction.
    const std::uint64_t submitted = run.driver->submitted();
    std::set<std::uint64_t> ids;
    for (const client::TxRecord& r : run.records) ids.insert(r.tx_id.value());
    check(submitted == run.spec.total_txs, "every scheduled transaction submitted");
    check(run.records.size() == submitted && ids.size() == submitted,
          "one terminal record per submitted transaction");
    for (const auto& c : net.clients()) {
        check(c->pending() == 0 && c->completed() + c->client_side_failures() ==
                                       c->submitted(),
              "no transaction left pending");
    }

    SimResult s;
    core::MetricsCollector mc;
    std::vector<const client::TxRecord*> ptrs;
    ptrs.reserve(run.records.size());
    for (const client::TxRecord& r : run.records) {
        mc.record(r);
        ptrs.push_back(&r);
    }
    const PriorityLevel lowest = net.config().channel.effective_levels() - 1;
    record_metrics(s, ptrs, submitted, lowest, mc.throughput_tps());

    const peer::Peer& p0 = *net.peers().front();
    s.values["peer.useful_ratio"] =
        static_cast<double>(p0.txs_valid()) /
        static_cast<double>(std::max<std::uint64_t>(1, p0.proposals_endorsed()));
    s.values["peer.mvcc_priority_wins"] = static_cast<double>(p0.mvcc_priority_wins());
    s.values["peer.mvcc_fifo_wins"] = static_cast<double>(p0.mvcc_fifo_wins());
    s.values["ledger.state_bytes"] = static_cast<double>(p0.state().approx_memory_bytes());
    s.values["blocks"] = static_cast<double>(p0.chain().height());
    s.values["events"] = static_cast<double>(net.events_executed());
    const orderer::MultiQueueBlockGenerator* gen = net.osns().front()->generator();
    s.values["orderer.quota_transfers"] =
        gen ? static_cast<double>(gen->quota_transfers()) : 0.0;
    if (raft::RaftOrderingBackend* raft = net.raft_backend()) {
        s.values["raft.messages"] = static_cast<double>(raft->consensus_messages());
        s.values["raft.elections"] = static_cast<double>(raft->elections_started());
    } else {
        s.values["raft.messages"] = 0.0;
        s.values["raft.elections"] = 0.0;
    }

    s.fingerprints["chain"] = p0.chain().chain_fingerprint();
    s.fingerprints["state"] = p0.state().fingerprint();
    std::uint64_t osn = kFnvBasis;
    for (const crypto::Digest& d : net.osns().front()->block_hashes()) {
        for (const std::uint8_t byte : d) osn = fnv1a(osn, byte);
    }
    s.fingerprints["osn_blocks"] = osn;
    return s;
}

// ---------------------------------------------------------------------------
// Output.

void write_provenance(JsonWriter& j, const Args& a) {
    j.key("provenance");
    j.begin_object();
    j.field("workload", workload_name(a.workload));
    j.field("seed", a.seed);
    j.field("build_type", PERFBENCH_BUILD_TYPE);
    j.field("compiler", PERFBENCH_COMPILER);
    j.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    const std::string text = describe(a.workload);
    j.field("config_hash", crypto::to_hex(crypto::sha256(std::string_view(text))));
    j.field("config", text);
    j.end_object();
}

void write_sim(JsonWriter& j, const std::string& key, const SimResult& s) {
    j.key(key);
    j.begin_object();
    j.key("values");
    j.begin_object();
    for (const auto& [name, v] : s.values) j.field(name, v);
    j.end_object();
    j.key("fingerprints");
    j.begin_object();
    for (const auto& [name, v] : s.fingerprints) j.field(name, v);
    j.end_object();
    j.end_object();
}

void write_doubles(JsonWriter& j, const std::string& key, const std::vector<double>& xs) {
    j.key(key);
    j.begin_array();
    for (const double x : xs) j.value(x);
    j.end_array();
}

int report(const Args& a, const std::function<void(JsonWriter&)>& body) {
    std::ostringstream os;
    JsonWriter j(os);
    j.begin_object();
    j.field("mode", a.mode);
    write_provenance(j, a);
    body(j);
    j.field("peak_rss_mib", peak_rss_mib());
    j.key("failures");
    j.begin_array();
    for (const std::string& f : g_failures) j.value(f);
    j.end_array();
    j.end_object();
    std::cout << os.str() << std::endl;
    for (const std::string& f : g_failures) std::cerr << "check failed: " << f << "\n";
    return g_failures.empty() ? 0 : 3;
}

// ---------------------------------------------------------------------------
// Modes.

/// Timed runs per plain process.
constexpr int kRunsPerProcess = 2;

/// Timed set-ups before each run: many of the tens-of-microseconds
/// class-mix set-ups, a few of zipf_contended's tenth-of-a-second seeding.
int setups_per_run(WorkloadId id) {
    return id == WorkloadId::kZipfContended ? 3 : 31;
}

int mode_plain(const Args& a) {
    const RunSpec spec = run_spec(a.workload, a.seed);
    std::vector<double> setups;
    std::vector<std::vector<double>> chunks;
    std::optional<SimResult> sim;
    for (int r = 0; r < kRunsPerProcess; ++r) {
        std::unique_ptr<LiveRun> run;
        for (int k = 0; k < setups_per_run(a.workload); ++k) {
            run.reset();
            run = set_up(spec);
            setups.push_back(run->setup_cpu_s);
        }
        chunks.push_back(run_chunked(*run));
        const SimResult s = finish(*run);
        if (!sim) sim = s;
        check(s.values == sim->values && s.fingerprints == sim->fingerprints,
              "simulated metrics identical across repetitions");
    }
    return report(a, [&](JsonWriter& j) {
        write_doubles(j, "setup_cpu_s", setups);
        j.key("chunk_cpu_s");
        j.begin_array();
        for (const std::vector<double>& c : chunks) {
            j.begin_array();
            for (const double x : c) j.value(x);
            j.end_array();
        }
        j.end_array();
        j.field("terminal", static_cast<std::uint64_t>(spec.total_txs));
        write_sim(j, "sim", *sim);
    });
}

/// Drains `run` with a fresh audit attached up to simulated time `until`
/// (the whole run if unset) and returns the audit's report of that part.
obs::audit::AuditReport audited_run(LiveRun& run, std::optional<TimePoint> until) {
    obs::audit::AuditConfig cfg;
    const policy::ChannelConfig& ch = run.net->config().channel;
    cfg.level_weights =
        ch.priority_enabled ? ch.block_policy.fractions() : std::vector<double>{1.0};
    obs::audit::AuditAccountant audit(std::move(cfg));
    const auto start = Clock::now();
    run.net->set_audit(&audit);
    if (until) {
        run.net->advance_until(*until);
    } else {
        run.net->run();
    }
    audit.finalize(run.net->simulator().now());
    run.net->set_audit(nullptr);
    run.net->run();
    run.run_s = since(start);
    return audit.report();
}

/// End of the arrival phase: total_txs ÷ total_tps of simulated time.
/// Until then an overloaded workload's levels are backlogged and the
/// block generator decides the shares; afterwards every transaction is
/// ordered eventually, so a share over the drained run only restates the
/// class mix.
TimePoint arrival_end(const RunSpec& spec) {
    return TimePoint::origin() +
           Duration::from_seconds(static_cast<double>(spec.total_txs) / spec.total_tps);
}

/// Entitlement-normalized Jain index of per-level ordering share.
double share_jain(const obs::audit::AuditReport& report) {
    std::vector<double> shares;
    std::vector<double> entitled;
    for (const obs::audit::LevelReport& l : report.levels) {
        shares.push_back(l.share);
        entitled.push_back(l.entitled);
    }
    return obs::audit::jain_index(obs::audit::normalize_by_entitlement(shares, entitled));
}

int mode_audited(const Args& a) {
    const RunSpec spec = run_spec(a.workload, a.seed);
    const auto run = set_up(spec);
    const obs::audit::AuditReport rep = audited_run(*run, arrival_end(spec));
    const SimResult sim = finish(*run);
    return report(a, [&](JsonWriter& j) {
        j.field("run_s", run->run_s);
        j.field("share_jain", share_jain(rep));
        write_sim(j, "sim", sim);
    });
}

/// Simulated-station metrics from a trace sink's events.
std::map<std::string, double> station_metrics(const obs::TraceSink& sink,
                                              std::uint32_t levels) {
    std::unordered_map<std::uint64_t, TimePoint> enqueued;
    std::unordered_map<std::uint64_t, std::pair<TimePoint, std::uint64_t>> dequeued;
    std::unordered_map<std::uint64_t, TimePoint> cut_at;
    std::vector<std::vector<double>> wait(levels);
    std::uint64_t blocks = 0;
    std::uint64_t by_timeout = 0;
    double txs_in_blocks = 0.0;
    for (const obs::TraceEvent& e : sink.events()) {
        switch (e.type) {
            case obs::EventType::kEnqueue:
                enqueued.emplace(e.tx, e.at);
                break;
            case obs::EventType::kDequeue:
                if (e.actor != 0) break;  // OSN 0 speaks for all: they cut identically
                dequeued.emplace(e.tx, std::make_pair(e.at, e.block));
                if (const auto it = enqueued.find(e.tx);
                    it != enqueued.end() && e.priority < levels) {
                    wait[e.priority].push_back((e.at - it->second).as_seconds());
                }
                break;
            case obs::EventType::kBlockCut:
                if (e.actor != 0) break;
                cut_at.emplace(e.block, e.at);
                ++blocks;
                txs_in_blocks += static_cast<double>(e.value);
                by_timeout += e.value2 != 0 ? 1 : 0;
                break;
            default: break;
        }
    }
    std::vector<double> cut_wait;
    for (const auto& [tx, deq] : dequeued) {
        if (const auto it = cut_at.find(deq.second); it != cut_at.end()) {
            cut_wait.push_back((it->second - deq.first).as_seconds());
        }
    }
    std::map<std::string, double> m;
    // BENCHMARK.json names three levels; absent levels read 0.
    for (std::uint32_t l = 0; l < 3; ++l) {
        m["wfq.queue_wait_p99_s.l" + std::to_string(l)] =
            l < levels ? tail_percentile(wait[l], 99.0).value : 0.0;
    }
    m["orderer.block_cut_wait_p50_s"] = tail_percentile(cut_wait, 50.0).value;
    m["orderer.txs_per_block"] = blocks ? txs_in_blocks / static_cast<double>(blocks) : 0.0;
    m["orderer.timeout_cut_ratio"] =
        blocks ? static_cast<double>(by_timeout) / static_cast<double>(blocks) : 0.0;
    return m;
}

/// Rounds of plain, traced and audited runs behind the overhead ratios.
constexpr int kOverheadRounds = 3;

struct Span {
    std::uint64_t domain;
    double start_s;
    double dur_s;
};

int mode_traced(const Args& a) {
    const RunSpec spec = run_spec(a.workload, a.seed);
    const bool raft_backend =
        spec.config.ordering_backend == orderer::OrderingBackendKind::kRaft;

    // Run 0: plain, kept alive for the replay.
    const auto plain = set_up(spec);
    run_plain(*plain);
    const SimResult sim_plain = finish(*plain);
    const double terminal = static_cast<double>(plain->records.size());

    // Step loop: every event timed and attributed to its domain's role.
    std::vector<Span> spans;
    std::array<double, kRoleCount> role_s{};
    double loop_wall = 0.0;
    std::size_t queue_peak = 0;
    std::uint64_t events = 0;
    SimResult sim_step;
    {
        const auto run = set_up(spec);
        sim::Simulator& s = run->net->simulator();
        spans.reserve(static_cast<std::size_t>(sim_plain.values.at("events")) + 16);
        const auto loop_start = Clock::now();
        for (;;) {
            queue_peak = std::max(queue_peak, s.pending());
            const auto t0 = Clock::now();
            if (!s.step()) break;
            const auto t1 = Clock::now();
            spans.push_back({s.domain(),
                             std::chrono::duration<double>(t0 - loop_start).count(),
                             std::chrono::duration<double>(t1 - t0).count()});
        }
        loop_wall = since(loop_start);
        run->run_s = loop_wall;
        events = spans.size();
        for (const Span& sp : spans) {
            role_s[static_cast<std::size_t>(role_of_domain(sp.domain, raft_backend))] +=
                sp.dur_s;
        }
        sim_step = finish(*run);
    }

    // Overheads: plain, traced and audited runs alternate, and each kind's
    // best run-phase wall is compared (single runs drift with host load).
    // The first trace sink gives the simulated stations.
    const auto same = [](const SimResult& x, const SimResult& y) {
        return x.values == y.values && x.fingerprints == y.fingerprints;
    };
    bool identical = same(sim_plain, sim_step);
    double plain_s = plain->run_s;
    double traced_s = std::numeric_limits<double>::infinity();
    double audited_s = std::numeric_limits<double>::infinity();
    std::map<std::string, double> stations;
    for (int round = 0; round < kOverheadRounds; ++round) {
        if (round > 0) {
            const auto run = set_up(spec);
            run_plain(*run);
            plain_s = std::min(plain_s, run->run_s);
            identical = identical && same(sim_plain, finish(*run));
        }
        {
            const auto run = set_up(spec);
            obs::TraceSink sink;
            run->net->set_trace_sink(&sink);
            run_plain(*run);
            run->net->set_trace_sink(nullptr);
            traced_s = std::min(traced_s, run->run_s);
            if (round == 0) {
                stations =
                    station_metrics(sink, run->net->config().channel.effective_levels());
            }
            identical = identical && same(sim_plain, finish(*run));
        }
        {
            const auto run = set_up(spec);
            (void)audited_run(*run, std::nullopt);
            audited_s = std::min(audited_s, run->run_s);
            identical = identical && same(sim_plain, finish(*run));
        }
    }
    check(identical, "simulated metrics identical between traced and untraced runs");

    const auto replay_start = Clock::now();
    const ReplayResult rp = replay(*plain->net, spec);
    const double replay_s = since(replay_start);
    for (const std::string& f : rp.failures) check(false, f);

    if (!a.spans_path.empty()) {
        std::ofstream out(a.spans_path);
        out << "role,start_s,dur_s\n";
        for (const Span& sp : spans) {
            out << role_name(role_of_domain(sp.domain, raft_backend)) << ','
                << json_number(sp.start_s) << ',' << json_number(sp.dur_s) << '\n';
        }
        check(static_cast<bool>(out), "span file written");
    }

    std::map<std::string, double> layer;
    const auto us = [](const Timed& t) { return t.per_call() * 1e6; };
    layer["crypto.verify_us"] = us(rp.verify);
    layer["crypto.sign_us"] = us(rp.sign);
    layer["crypto.sha256_mb_per_s"] =
        rp.sha256.seconds > 0 ? static_cast<double>(rp.sha256_bytes) / 1e6 / rp.sha256.seconds
                              : 0.0;
    layer["crypto.nominal_verifies_per_tx"] =
        static_cast<double>(rp.nominal_verifies) / static_cast<double>(rp.transactions);
    layer["peer.validate_block_ms"] = rp.validate_block.per_call() * 1e3;
    layer["peer.apply_block_ms"] = rp.apply_block.per_call() * 1e3;
    layer["peer.endorse_us"] = us(rp.endorse);
    layer["client.verify_endorsement_us"] = us(rp.verify_endorsement);
    layer["orderer.consolidate_us"] = us(rp.consolidate);
    double span_sum = 0.0;
    for (std::size_t r = 0; r < kRoleCount; ++r) {
        const auto role = static_cast<Role>(r);
        span_sum += role_s[r];
        if (role == Role::kSim) continue;
        const std::string name(role_name(role));
        layer[name + ".host_us_per_tx"] = role_s[r] * 1e6 / terminal;
        if (role == Role::kPeer || role == Role::kClient || role == Role::kOrderer) {
            layer["replay.coverage." + name] =
                role_s[r] > 0 ? rp.role_seconds(role) / role_s[r] : 0.0;
        }
    }
    layer["sim.span_coverage"] = span_sum / loop_wall;
    layer["sim.events_per_tx"] = static_cast<double>(events) / terminal;
    layer["sim.host_ns_per_event"] = loop_wall * 1e9 / static_cast<double>(events);
    layer["sim.queue_peak"] = static_cast<double>(queue_peak);
    layer["ledger.seed_s"] = plain->seed_s;
    layer["ledger.state_bytes"] = sim_plain.values.at("ledger.state_bytes");
    for (const auto& [k, v] : stations) layer[k] = v;
    layer["orderer.quota_transfers"] = sim_plain.values.at("orderer.quota_transfers");
    for (const char* k : {"peer.endorse_phase_p50_s", "orderer.ordering_phase_p50_s",
                          "peer.validate_phase_p50_s", "client.notify_phase_p50_s",
                          "peer.useful_ratio", "peer.mvcc_priority_wins",
                          "peer.mvcc_fifo_wins", "raft.elections"}) {
        layer[k] = sim_plain.values.at(k);
    }
    layer["raft.msgs_per_tx"] = sim_plain.values.at("raft.messages") / terminal;
    layer["obs.trace_overhead"] = traced_s / plain_s;
    layer["obs.audit_overhead"] = audited_s / plain_s;

    return report(a, [&](JsonWriter& j) {
        j.field("run_s", plain_s);
        // Run 0, the step loop, and each round's traced, audited and (after
        // the first) plain run.
        j.field("networks", static_cast<std::uint64_t>(1 + 3 * kOverheadRounds));
        j.field("step_loop_s", loop_wall);
        j.field("traced_run_s", traced_s);
        j.field("audited_run_s", audited_s);
        j.field("replay_s", replay_s);
        j.key("role_self_s");
        j.begin_object();
        for (std::size_t r = 0; r < kRoleCount; ++r) {
            j.field(role_name(static_cast<Role>(r)), role_s[r]);
        }
        j.end_object();
        j.key("replay");
        j.begin_object();
        for (const auto& [name, t] :
             {std::pair{"validate_block", rp.validate_block},
              {"apply_block", rp.apply_block},
              {"endorse", rp.endorse},
              {"verify_endorsement", rp.verify_endorsement},
              {"consolidate", rp.consolidate},
              {"data_hash_peer", rp.data_hash_peer},
              {"data_hash_orderer", rp.data_hash_orderer},
              {"wfq", rp.wfq},
              {"sign", rp.sign},
              {"verify", rp.verify},
              {"sha256", rp.sha256}}) {
            j.key(name);
            j.begin_object();
            j.field("seconds", t.seconds);
            j.field("calls", t.calls);
            j.end_object();
        }
        j.end_object();
        j.key("per_layer");
        j.begin_object();
        for (const auto& [k, v] : layer) j.field(k, v);
        j.end_object();
        write_sim(j, "sim", sim_plain);
    });
}

// -- paper_sweep ------------------------------------------------------------

/// What the probes see of one sweep point (its runs are serial on one
/// worker, so a point's slot is only touched from that worker).
struct PointProbe {
    std::vector<client::TxRecord> records;
    std::vector<std::uint64_t> run_terminal;
    std::vector<double> run_wall;
    std::vector<std::thread::id> run_thread;
    std::vector<std::uint64_t> fingerprints;
    std::vector<bool> consistent;
    Clock::time_point run_start;
    std::uint64_t run_records = 0;
};

struct SweepOutcome {
    double wall = 0.0;
    std::vector<harness::PointResult> results;
    std::vector<std::shared_ptr<PointProbe>> probes;
};

/// Runs the grid.  Records and fingerprints are collected through
/// tx_probe/run_probe, and each run is timed from its workload factory call
/// (right after the network is built) to its probe.
SweepOutcome run_grid(std::uint64_t seed, unsigned threads) {
    harness::SweepSpec sweep = sweep_spec(seed, threads);
    SweepOutcome out;
    for (harness::ExperimentPoint& point : sweep.points) {
        auto probe = std::make_shared<PointProbe>();
        out.probes.push_back(probe);
        point.spec.make_workload = [probe, make = point.spec.make_workload] {
            probe->run_start = Clock::now();
            return make();
        };
        point.spec.tx_probe = [probe](const client::TxRecord& r, core::FabricNetwork&,
                                      std::map<std::string, double>&) {
            probe->records.push_back(r);
            ++probe->run_records;
        };
        point.spec.run_probe = [probe](core::FabricNetwork& net,
                                       std::map<std::string, double>&) {
            probe->run_wall.push_back(since(probe->run_start));
            probe->run_thread.push_back(std::this_thread::get_id());
            probe->run_terminal.push_back(probe->run_records);
            probe->run_records = 0;
            const peer::Peer& p0 = *net.peers().front();
            probe->fingerprints.push_back(
                fnv1a(p0.chain().chain_fingerprint(), p0.state().fingerprint()));
            bool ok = net.chains_identical() && net.states_identical() &&
                      net.osn_blocks_identical();
            for (const auto& p : net.peers()) ok = ok && p->chain().verify_chain();
            probe->consistent.push_back(ok);
        };
    }
    const auto start = Clock::now();
    out.results = harness::run_sweep(sweep);
    out.wall = since(start);
    return out;
}

SimResult sweep_sim(const SweepOutcome& o) {
    std::vector<const client::TxRecord*> all;
    std::uint64_t submitted = 0;
    double tps_sum = 0.0;
    std::uint64_t fp = kFnvBasis;
    const RunSpec point = run_spec(WorkloadId::kPaperSweep, 0);
    for (std::size_t i = 0; i < o.probes.size(); ++i) {
        const PointProbe& p = *o.probes[i];
        for (const client::TxRecord& r : p.records) all.push_back(&r);
        submitted += p.run_terminal.size() * point.total_txs;
        tps_sum += o.results[i].result.throughput_tps.mean();
        for (const std::uint64_t f : p.fingerprints) fp = fnv1a(fp, f);
        check(p.run_terminal.size() == o.results[i].result.blocks_per_run.runs(),
              "every sweep run probed");
        for (const std::uint64_t t : p.run_terminal) {
            check(t == point.total_txs, "one terminal record per submitted transaction");
        }
        for (const bool ok : p.consistent) {
            check(ok, "sweep run consistent (chains, states, OSN blocks, verify_chain)");
        }
        check(o.results[i].result.all_consistent, "sweep point consistent");
    }
    SimResult s;
    record_metrics(s, all, submitted, 2,
                   tps_sum / static_cast<double>(o.probes.size()));
    s.fingerprints["sweep"] = fp;
    return s;
}

int mode_sweep(const Args& a) {
    const unsigned threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    const SweepOutcome o = run_grid(a.seed, threads);
    const SimResult sim = sweep_sim(o);

    std::vector<double> walls;
    std::map<std::thread::id, double> busy;
    for (const auto& p : o.probes) {
        for (std::size_t r = 0; r < p->run_wall.size(); ++r) {
            walls.push_back(p->run_wall[r]);
            busy[p->run_thread[r]] += p->run_wall[r];
        }
    }
    double sum = 0.0;
    double max_wall = 0.0;
    for (const double w : walls) {
        sum += w;
        max_wall = std::max(max_wall, w);
    }
    double busy_max = 0.0;
    for (const auto& [id, b] : busy) busy_max = std::max(busy_max, b);
    std::map<std::string, double> harness_layer;
    harness_layer["harness.pool_efficiency"] = sum / (static_cast<double>(threads) * o.wall);
    harness_layer["harness.run_wall_max_over_mean"] =
        max_wall / (sum / static_cast<double>(walls.size()));
    harness_layer["harness.thread_busy_max_over_mean"] =
        busy_max / (sum / static_cast<double>(threads));
    // The same grid on one thread: run walls that grow with the thread
    // count are contention, not imbalance.
    const SweepOutcome serial = run_grid(a.seed, 1);
    double serial_sum = 0.0;
    for (const auto& p : serial.probes) {
        for (const double w : p->run_wall) serial_sum += w;
    }
    harness_layer["harness.run_wall_inflation"] = sum / serial_sum;
    harness_layer["harness.speedup"] = serial.wall / o.wall;
    const SimResult serial_sim = sweep_sim(serial);
    check(serial_sim.values == sim.values && serial_sim.fingerprints == sim.fingerprints,
          "sweep results identical at one and many threads");

    return report(a, [&](JsonWriter& j) {
        j.field("sweep_wall_s", o.wall);
        j.field("threads", static_cast<std::uint64_t>(threads));
        j.key("per_layer");
        j.begin_object();
        for (const auto& [k, v] : harness_layer) j.field(k, v);
        j.end_object();
        write_sim(j, "sim", sim);
    });
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    int rc = 4;
    try {
        rc = a.mode == "plain"     ? mode_plain(a)
             : a.mode == "audited" ? mode_audited(a)
             : a.mode == "traced"  ? mode_traced(a)
                                   : mode_sweep(a);
    } catch (const std::exception& e) {
        std::cerr << "fairbench: " << e.what() << "\n";
    }
    // Skip tearing down the networks (a million-key state takes seconds to
    // free); everything worth keeping is already written.
    std::cout.flush();
    std::_Exit(rc);
}
