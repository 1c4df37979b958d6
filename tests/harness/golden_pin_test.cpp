// Golden byte-identity pins for the serial engine.
//
// Three small fixed-seed configurations run through harness::run_once —
// the mq backend, the Raft backend with a leader failover, and mq with
// message faults plus an OSN crash/restart and a slow endorser — each with
// a trace attached.  For every run the test pins
// peer 0's chain and state fingerprints plus SHA-256 digests of the metrics
// JSON and the trace JSONL.  The pinned values are recorded artifacts: any
// change to event tie order, rng stream layout, network delivery or trace
// emission order moves at least one of them.  A change that moves a pin on
// purpose is a model change and must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/fabric_network.h"
#include "core/metrics.h"
#include "crypto/sha256.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/trace.h"

namespace fl::harness {
namespace {

struct Observed {
    std::uint64_t chain_fingerprint = 0;
    std::uint64_t state_fingerprint = 0;
    std::string metrics_sha256;
    std::string trace_sha256;
    std::uint64_t committed = 0;
    std::size_t trace_events = 0;
    std::uint64_t leader_changes = 0;
    std::uint64_t messages_dropped = 0;
    std::uint64_t faults_applied = 0;
    bool consistent = false;
};

core::NetworkConfig small_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 3;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.endorsement_k = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 40;
    cfg.channel.block_timeout = Duration::millis(200);
    return cfg;
}

ExperimentSpec small_spec(core::NetworkConfig cfg) {
    ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.runs = 1;
    const std::size_t clients = spec.config.clients;
    spec.make_workload = [clients] {
        Workload w;
        for (std::size_t c = 0; c < clients; ++c) {
            LoadSpec load;
            load.client_index = c;
            load.tps = 80.0;
            load.generate = priority_class_mix({1, 2, 1});
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(360);
        return w;
    };
    return spec;
}

Observed run_pinned(ExperimentSpec spec, std::uint64_t seed) {
    obs::TraceSink sink;
    Observed out;
    spec.instrument = [&sink](core::FabricNetwork& net, unsigned) {
        net.set_trace_sink(&sink);
    };
    spec.run_probe = [&out](core::FabricNetwork& net, std::map<std::string, double>&) {
        out.chain_fingerprint = net.peers().front()->chain().chain_fingerprint();
        out.state_fingerprint = net.peers().front()->state().fingerprint();
        out.messages_dropped = net.network().messages_dropped();
        out.faults_applied = net.faults_applied();
        if (const raft::RaftOrderingBackend* rb = net.raft_backend()) {
            out.leader_changes = rb->leader_changes();
        }
    };
    const RunResult r = run_once(spec, seed);

    std::ostringstream metrics;
    core::write_metrics_json(metrics, r.metrics);
    std::ostringstream trace;
    sink.write_jsonl(trace);
    out.metrics_sha256 = crypto::to_hex(crypto::sha256(metrics.str()));
    out.trace_sha256 = crypto::to_hex(crypto::sha256(trace.str()));
    out.committed = r.metrics.committed_valid();
    out.trace_events = sink.size();
    out.consistent = r.chains_identical && r.states_identical;
    return out;
}

TEST(GoldenPinTest, MqBackend) {
    const Observed o = run_pinned(small_spec(small_config()), 11);
    ASSERT_TRUE(o.consistent);
    ASSERT_GT(o.committed, 0u);
    ASSERT_GT(o.trace_events, 0u);
    EXPECT_EQ(o.chain_fingerprint, 10234465913327203474u);
    EXPECT_EQ(o.state_fingerprint, 4280772011994119421u);
    EXPECT_EQ(o.metrics_sha256,
              "7658e0be464f9ea7f49109fc2a1cf675c015a79cf455f21e5479bf5d606a25b1");
    EXPECT_EQ(o.trace_sha256,
              "f4faf07633e66802ed886d0fb38f712c267536bd556a630e081deb8a18626995");
}

TEST(GoldenPinTest, RaftBackendWithLeaderFailover) {
    core::NetworkConfig cfg = small_config();
    cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
    cfg.faults.schedule = {
        {Duration::millis(700), fault::FaultKind::kRaftLeaderKill, 0},
        {Duration::millis(1500), fault::FaultKind::kRaftNodeRestart, raft::kAllNodes}};
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.commit_timeout = Duration::seconds(2);
    const Observed o = run_pinned(small_spec(std::move(cfg)), 12);
    ASSERT_TRUE(o.consistent);
    ASSERT_GT(o.leader_changes, 0u);  // the failover happened
    ASSERT_GT(o.committed, 0u);
    ASSERT_GT(o.trace_events, 0u);
    EXPECT_EQ(o.chain_fingerprint, 15803057215875603378u);
    EXPECT_EQ(o.state_fingerprint, 14866624886520283309u);
    EXPECT_EQ(o.metrics_sha256,
              "598b730ef233194230ecee1f0b8981ff253ecf79369330704d240bcb3d55915e");
    EXPECT_EQ(o.trace_sha256,
              "a38e4aae2ae56c1844ae25caa0cb46ec49a59f7086f96ba79a271f1e29fd706d");
}

TEST(GoldenPinTest, MqWithMessageAndComponentFaults) {
    core::NetworkConfig cfg = small_config();
    cfg.faults.messages.drop_prob = 0.03;
    cfg.faults.messages.dup_prob = 0.03;
    cfg.faults.messages.delay_prob = 0.05;
    cfg.faults.schedule = {
        {Duration::millis(300), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(400), fault::FaultKind::kEndorserSlow, 0, 4.0},
        {Duration::millis(900), fault::FaultKind::kOsnRestart, 1},
        {Duration::millis(1000), fault::FaultKind::kEndorserNormal, 0}};
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.commit_timeout = Duration::seconds(2);
    const Observed o = run_pinned(small_spec(std::move(cfg)), 13);
    ASSERT_TRUE(o.consistent);
    ASSERT_GT(o.messages_dropped, 0u);
    ASSERT_EQ(o.faults_applied, 4u);
    ASSERT_GT(o.committed, 0u);
    ASSERT_GT(o.trace_events, 0u);
    EXPECT_EQ(o.chain_fingerprint, 4624093742766271541u);
    EXPECT_EQ(o.state_fingerprint, 7340932688739826850u);
    EXPECT_EQ(o.metrics_sha256,
              "9c2b3c25e2a2702e2448c6c3b24891ab422c178c612ecd8f5a89a4d72b1ea30b");
    EXPECT_EQ(o.trace_sha256,
              "8a9f30e2a8f57dce205e8deb8fc35247a1a5c3b40427cf0274792abbebe8378d");
}

}  // namespace
}  // namespace fl::harness
