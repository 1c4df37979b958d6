// The OrderingBackend equivalence contract (DESIGN.md §15): a fault-free run
// on the Raft backend is byte-identical to the same run on the mq backend —
// identical ledgers, identical OSN block sequences, byte-identical metrics
// JSON and byte-identical trace JSONL.  Raft node 0 sits at the broker's
// address and bootstraps as leader of term 1, so the client-visible traffic
// traverses the same links in the same order; this suite is the gate that
// keeps that argument true.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/fabric_network.h"
#include "harness/workload.h"
#include "obs/trace.h"

namespace fl {
namespace {

core::NetworkConfig base_config(orderer::OrderingBackendKind backend,
                                std::uint64_t seed) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = seed;
    cfg.ordering_backend = backend;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    return cfg;
}

struct Outcome {
    std::vector<client::TxRecord> records;
    core::MetricsCollector metrics;
};

Outcome drive(core::FabricNetwork& net, std::uint64_t total) {
    Outcome out;
    net.set_tx_sink([&out](const client::TxRecord& r) {
        out.records.push_back(r);
        out.metrics.record(r);
    });
    harness::Workload workload;
    for (std::size_t c = 0; c < net.clients().size(); ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 50.0;
        load.generate = harness::priority_class_mix({1, 2, 1});
        workload.loads.push_back(std::move(load));
    }
    workload.distribute_total(total);
    harness::WorkloadDriver driver(net, std::move(workload), Rng(net.config().seed));
    driver.start();
    net.run();
    return out;
}

std::string metrics_json(const core::MetricsCollector& metrics) {
    std::ostringstream os;
    core::write_metrics_json(os, metrics);
    return os.str();
}

std::string trace_jsonl(const obs::TraceSink& sink) {
    std::ostringstream os;
    sink.write_jsonl(os);
    return os.str();
}

TEST(RaftEquivalenceTest, FaultFreeRunsAreByteIdenticalAcrossBackends) {
    for (std::uint64_t seed : {11u, 42u, 1234u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        core::FabricNetwork mq(base_config(orderer::OrderingBackendKind::kMq, seed));
        core::FabricNetwork rf(base_config(orderer::OrderingBackendKind::kRaft, seed));
        const Outcome om = drive(mq, 300);
        const Outcome orf = drive(rf, 300);

        // Same terminal accounting, byte for byte.
        EXPECT_EQ(metrics_json(om.metrics), metrics_json(orf.metrics));
        ASSERT_EQ(om.records.size(), orf.records.size());

        // Same ledgers on every peer, same block sequence on every OSN.
        ASSERT_EQ(mq.peers().size(), rf.peers().size());
        for (std::size_t p = 0; p < mq.peers().size(); ++p) {
            EXPECT_EQ(mq.peers()[p]->chain().chain_fingerprint(),
                      rf.peers()[p]->chain().chain_fingerprint());
            EXPECT_EQ(mq.peers()[p]->state().fingerprint(),
                      rf.peers()[p]->state().fingerprint());
        }
        ASSERT_EQ(mq.osns().size(), rf.osns().size());
        for (std::size_t o = 0; o < mq.osns().size(); ++o) {
            EXPECT_TRUE(mq.osns()[o]->block_hashes() == rf.osns()[o]->block_hashes());
        }

        // A fault-free Raft run never leaves term 1: node 0 is the bootstrap
        // leader and nothing challenges it.
        ASSERT_NE(rf.raft_backend(), nullptr);
        EXPECT_EQ(rf.raft_backend()->current_term(), 1u);
        EXPECT_EQ(rf.raft_backend()->elections_started(), 0u);
        EXPECT_EQ(rf.raft_backend()->leader_changes(), 0u);
        EXPECT_EQ(rf.raft_backend()->pending_submissions(), 0u);
        EXPECT_EQ(mq.raft_backend(), nullptr);
    }
}

TEST(RaftEquivalenceTest, TracesAreByteIdenticalAcrossBackends) {
    core::FabricNetwork mq(base_config(orderer::OrderingBackendKind::kMq, 7));
    core::FabricNetwork rf(base_config(orderer::OrderingBackendKind::kRaft, 7));
    obs::TraceSink mq_trace;
    obs::TraceSink rf_trace;
    mq.set_trace_sink(&mq_trace);
    rf.set_trace_sink(&rf_trace);
    drive(mq, 200);
    drive(rf, 200);
    ASSERT_FALSE(mq_trace.empty());
    // No elections fire fault-free, so no Raft-typed events exist and the
    // append hook emits the same kEnqueue/kTtcEnqueue stream as the broker.
    EXPECT_EQ(trace_jsonl(mq_trace), trace_jsonl(rf_trace));
}

TEST(RaftEquivalenceTest, RaftRunIsAPureFunctionOfConfigAndSeed) {
    core::FabricNetwork a(base_config(orderer::OrderingBackendKind::kRaft, 99));
    core::FabricNetwork b(base_config(orderer::OrderingBackendKind::kRaft, 99));
    const Outcome ra = drive(a, 200);
    const Outcome rb = drive(b, 200);
    EXPECT_EQ(metrics_json(ra.metrics), metrics_json(rb.metrics));
    EXPECT_EQ(a.peers().front()->chain().chain_fingerprint(),
              b.peers().front()->chain().chain_fingerprint());
}

}  // namespace
}  // namespace fl
