// FabricNetwork drive-mode and observer contracts over full networks.
//
// Every network owns exactly one Simulator.  A run's observable output —
// trace JSONL, transaction-record stream (content AND sink order), metrics
// JSON, chain/state fingerprints — must not depend on how the simulator is
// driven (one run() drain or consecutive advance_until windows, the drive
// mode of perfbench's chunked run), on which observers are attached, or
// on anything but the config and seed.  These tests pin that over both
// ordering backends, with component faults and with message faults.
#include "core/fabric_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/metrics.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/audit/audit.h"
#include "obs/trace.h"
#include "peer/validator.h"
#include "policy/consolidation_policy.h"

namespace fl::core {
namespace {

NetworkConfig small_config(std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 2;
    cfg.clients = 2;
    cfg.seed = seed;
    return cfg;
}

NetworkConfig component_fault_config() {
    NetworkConfig cfg = small_config(42);
    cfg.faults.schedule = {
        {Duration::millis(50), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(100), fault::FaultKind::kEndorserSlow, 0, 4.0},
        {Duration::millis(300), fault::FaultKind::kOsnRestart, 1},
        {Duration::millis(400), fault::FaultKind::kEndorserNormal, 0},
    };
    return cfg;
}

NetworkConfig raft_config() {
    NetworkConfig cfg = small_config(7);
    cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
    return cfg;
}

NetworkConfig message_fault_config() {
    NetworkConfig cfg = small_config(1);
    cfg.faults.messages.drop_prob = 0.01;
    cfg.faults.messages.dup_prob = 0.01;
    cfg.faults.messages.delay_prob = 0.02;
    return cfg;
}

harness::Workload small_workload(std::uint32_t clients, std::uint64_t total) {
    harness::Workload wl;
    for (std::uint32_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 400.0;
        load.generate = harness::priority_class_mix({1, 2, 1});
        wl.loads.push_back(std::move(load));
    }
    wl.distribute_total(total);
    return wl;
}

/// Everything observable about one run, for byte-for-byte comparison.
struct RunOutput {
    std::string trace_jsonl;
    std::string tx_log;  ///< serialized TxRecords in sink-callback order
    std::string metrics_json;
    std::uint64_t chain_fp = 0;
    std::uint64_t state_fp = 0;
    std::uint64_t blocks = 0;
    std::uint64_t submitted = 0;
    std::uint64_t faults = 0;
    std::uint64_t dropped = 0;
    bool consistent = false;

    friend bool operator==(const RunOutput&, const RunOutput&) = default;
};

struct DriveOptions {
    std::uint64_t total_txs = 240;
    /// > 0 drains via repeated advance_until windows of this size instead
    /// of run(), as perfbench's chunked run does — output must not depend
    /// on the stepping.
    Duration step = Duration::zero();
    /// Attach a fairness-audit accountant for the whole run.
    bool audit = false;
};

/// Builds a network, drives the standard workload and captures every
/// observable output.
RunOutput drive(NetworkConfig cfg, DriveOptions opt = {}) {
    FabricNetwork net(std::move(cfg));
    MetricsCollector metrics;
    std::ostringstream txlog;
    net.set_tx_sink([&](const client::TxRecord& r) {
        metrics.record(r);
        txlog << r.tx_id.value() << ' ' << r.client.value() << ' ' << r.chaincode
              << ' ' << static_cast<int>(r.priority) << ' '
              << r.submitted_at.as_nanos() << ' ' << r.broadcast_at.as_nanos()
              << ' ' << r.block_cut_at.as_nanos() << ' '
              << r.committed_at.as_nanos() << ' ' << r.completed_at.as_nanos()
              << ' ' << static_cast<int>(r.code) << ' ' << r.failed_before_ordering
              << ' ' << r.endorse_retries << ' ' << r.resubmissions << '\n';
    });
    obs::TraceSink trace;
    net.set_trace_sink(&trace);
    std::unique_ptr<obs::audit::AuditAccountant> audit;
    if (opt.audit) {
        obs::audit::AuditConfig audit_cfg;
        audit_cfg.level_weights = net.config().channel.block_policy.fractions();
        audit = std::make_unique<obs::audit::AuditAccountant>(std::move(audit_cfg));
        net.set_audit(audit.get());
    }

    harness::WorkloadDriver driver(
        net, small_workload(net.config().clients, opt.total_txs),
        Rng(harness::workload_seed(net.config().seed)));
    driver.start();

    if (opt.step > Duration::zero()) {
        TimePoint at = TimePoint::origin();
        while (net.next_event_time() != TimePoint::max()) {
            at = at + opt.step;
            net.advance_until(at);
        }
    } else {
        net.run();
    }
    if (audit) {
        audit->finalize(net.last_event_at());
    }

    RunOutput out;
    std::ostringstream ts;
    trace.write_jsonl(ts);
    out.trace_jsonl = ts.str();
    out.tx_log = txlog.str();
    std::ostringstream ms;
    write_metrics_json(ms, metrics);
    out.metrics_json = ms.str();
    out.chain_fp = net.peers().front()->chain().chain_fingerprint();
    out.state_fp = net.peers().front()->state().fingerprint();
    out.blocks = net.peers().front()->chain().height();
    out.submitted = driver.submitted();
    out.faults = net.faults_applied();
    out.dropped = net.network().messages_dropped();
    out.consistent = net.chains_identical() && net.states_identical() &&
                     net.osn_blocks_identical();
    return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
    // Field-by-field first so a mismatch names the diverging artifact.
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
    EXPECT_EQ(a.tx_log, b.tx_log);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.chain_fp, b.chain_fp);
    EXPECT_EQ(a.state_fp, b.state_fp);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_TRUE(a.consistent);
    EXPECT_TRUE(b.consistent);
    EXPECT_GT(a.blocks, 0u);
}

TEST(FabricNetworkTest, DefaultConfigOwnsOneSimulator) {
    FabricNetwork net(small_config(1));
    sim::Simulator& sim = net.simulator();
    EXPECT_EQ(&sim, &net.simulator());
    harness::WorkloadDriver driver(net, small_workload(2, 40),
                                   Rng(harness::workload_seed(net.config().seed)));
    driver.start();
    EXPECT_EQ(net.next_event_time(), sim.next_event_time());
    net.run();
    // Every accessor reads the one simulator the components run on.
    EXPECT_GT(net.events_executed(), 0u);
    EXPECT_EQ(net.events_executed(), sim.events_executed());
    EXPECT_EQ(net.last_event_at(), sim.last_event_at());
    EXPECT_EQ(net.next_event_time(), TimePoint::max());
    EXPECT_TRUE(sim.empty());
}

TEST(FabricNetworkTest, RunLeavesTheClockAtTheLastEvent) {
    FabricNetwork net(small_config(1));
    harness::WorkloadDriver driver(net, small_workload(2, 40),
                                   Rng(harness::workload_seed(net.config().seed)));
    driver.start();
    net.run();
    EXPECT_EQ(driver.submitted(), 40u);
    EXPECT_GT(net.last_event_at(), TimePoint::origin());
    EXPECT_EQ(net.simulator().now(), net.last_event_at());
    // advance_until past the drain moves the clock but runs nothing.
    const TimePoint later = net.last_event_at() + Duration::seconds(1);
    EXPECT_EQ(net.advance_until(later), 0u);
    EXPECT_EQ(net.simulator().now(), later);
}

TEST(FabricNetworkTest, RepeatedRunsAreByteIdentical) {
    for (const std::uint64_t seed : {1ull, 1234ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expect_identical(drive(small_config(seed)), drive(small_config(seed)));
    }
}

TEST(FabricNetworkTest, WindowSteppingDoesNotChangeOutput) {
    // advance_until at arbitrary external boundaries (perfbench's chunked
    // run) must equal a single run() drain.
    const RunOutput whole = drive(small_config(42));
    const RunOutput fine = drive(small_config(42), {.step = Duration::millis(3)});
    const RunOutput coarse = drive(small_config(42), {.step = Duration::millis(97)});
    expect_identical(whole, fine);
    expect_identical(whole, coarse);
}

TEST(FabricNetworkTest, ComponentFaultScheduleSteppingMatchesRun) {
    const RunOutput whole = drive(component_fault_config());
    const RunOutput stepped =
        drive(component_fault_config(), {.step = Duration::millis(7)});
    EXPECT_EQ(whole.faults, 4u);
    expect_identical(whole, stepped);
}

TEST(FabricNetworkTest, RaftBackendSteppingMatchesRun) {
    const RunOutput whole = drive(raft_config(), {.total_txs = 120});
    const RunOutput stepped =
        drive(raft_config(), {.total_txs = 120, .step = Duration::millis(5)});
    expect_identical(whole, stepped);
}

TEST(FabricNetworkTest, MessageFaultsRunOnTheOneSimulator) {
    // Message faults draw from one shared rng stream in send order; with a
    // single simulator that order is the run's event order, so faulted runs
    // repeat byte for byte and do not depend on the stepping either.
    const RunOutput whole = drive(message_fault_config());
    EXPECT_GT(whole.dropped, 0u);
    expect_identical(whole, drive(message_fault_config()));
    expect_identical(whole, drive(message_fault_config(), {.step = Duration::millis(11)}));
}

TEST(FabricNetworkTest, GlobalOrderObserversAttachOnEveryConfig) {
    // set_audit() accepts every config, and the audit is purely
    // observational: attaching it changes no output byte.
    for (NetworkConfig cfg :
         {small_config(1), raft_config(), component_fault_config(),
          message_fault_config()}) {
        {
            FabricNetwork net(cfg);
            obs::audit::AuditAccountant audit{obs::audit::AuditConfig{}};
            EXPECT_NO_THROW(net.set_audit(&audit));
            EXPECT_NO_THROW(net.set_audit(nullptr));
        }
        const RunOutput plain = drive(cfg, {.total_txs = 120});
        const RunOutput audited = drive(cfg, {.total_txs = 120, .audit = true});
        expect_identical(plain, audited);
    }
}

TEST(FabricNetworkTest, CommittedCodesMatchReplayedValidation) {
    // A contended run on a prioritized channel commits exactly what
    // validate_block and apply_block decide when its chain is replayed from
    // the seeded state.
    NetworkConfig cfg = small_config(91);
    cfg.channel.priority_enabled = true;
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(300);
    FabricNetwork net(cfg);
    constexpr std::uint32_t kHot = 5;
    harness::seed_hot_accounts(net, kHot);
    harness::Workload wl;
    for (std::uint32_t c = 0; c < net.config().clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 120.0;
        load.generate = harness::contended_transfers(kHot);
        wl.loads.push_back(std::move(load));
    }
    wl.distribute_total(400);
    harness::WorkloadDriver driver(net, std::move(wl),
                                   Rng(harness::workload_seed(net.config().seed)));
    driver.start();
    net.run();

    const peer::Peer& committer = *net.peers().front();
    ASSERT_GT(committer.chain().height(), 0u);
    EXPECT_GT(committer.mvcc_fifo_wins(), 0u);  // the hot keys do collide

    // Start the replay from the seeded state of an identical network that
    // never ran.
    FabricNetwork genesis_net(cfg);
    harness::seed_hot_accounts(genesis_net, kHot);
    const ledger::WorldState& genesis = genesis_net.peers().front()->state();
    ledger::WorldState replayed;
    for (const ledger::KvRead& r : genesis.range("", "\x7f")) {
        replayed.apply(ledger::KvWrite{r.key, *genesis.get(r.key), false}, *r.version);
    }
    ASSERT_EQ(replayed.key_count(), genesis.key_count());
    const policy::ChannelConfig& channel = net.config().channel;
    const auto consolidation =
        policy::make_consolidation_policy(channel.consolidation_spec);
    peer::ValidatorConfig vcfg;
    vcfg.prioritized = true;
    vcfg.verify_consolidation = true;
    std::unordered_set<std::uint64_t> seen;
    std::uint64_t valid = 0;
    for (BlockNumber n = 0; n < committer.chain().height(); ++n) {
        const ledger::Block& block = committer.chain().at(n);
        const peer::ValidationOutcome out = peer::validate_block(
            block, replayed, channel, consolidation.get(), net.keys(), seen, vcfg);
        EXPECT_EQ(out.codes, block.validation_codes) << "block " << n;
        peer::apply_block(block, out, replayed);
        valid += out.valid_count;
    }
    EXPECT_EQ(valid, committer.txs_valid());
    EXPECT_EQ(replayed.fingerprint(), committer.state().fingerprint());
    EXPECT_TRUE(net.states_identical());
}

}  // namespace
}  // namespace fl::core
