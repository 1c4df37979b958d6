// Chaos integration tests: the full pipeline under deterministic fault
// injection — OSN crash/recovery with log replay, endorser outages and
// slow-downs, broker unavailability, message drop/duplication/delay, and
// client-side retry/resubmission (DESIGN.md §11).
//
// The invariants asserted for every chaos seed are the ISSUE's acceptance
// criteria:
//   1. all surviving OSNs emit byte-identical block sequences (prefix
//      consistency; full identity once every crashed OSN has replayed);
//   2. every committed ledger's hash chain verifies;
//   3. no transaction commits twice;
//   4. every client submission terminates in exactly one of
//      {committed, aborted, failed(reason)};
//   5. the whole run is a pure function of (config, seed): re-running
//      produces byte-identical metrics JSON.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "harness/workload.h"

namespace fl {
namespace {

core::NetworkConfig chaos_config(std::uint64_t seed) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = seed;
    // k-of-n endorsement so a single endorser outage is survivable.
    cfg.endorsement_k = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);

    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.max_endorse_retries = 3;
    retry.commit_timeout = Duration::seconds(3);
    retry.max_resubmissions = 3;
    retry.backoff_base = Duration::millis(50);

    fault::FaultSpec& faults = cfg.faults;
    faults.messages.drop_prob = 0.03;
    faults.messages.dup_prob = 0.02;
    faults.messages.delay_prob = 0.05;
    faults.messages.delay_mean = Duration::millis(40);
    fault::FaultProfile profile;
    profile.horizon = Duration::seconds(6);
    profile.expected_osn_crashes = 1.5;
    profile.osn_downtime_mean = Duration::seconds(1);
    profile.expected_endorser_outages = 1.0;
    profile.endorser_downtime_mean = Duration::millis(800);
    profile.expected_endorser_slowdowns = 1.0;
    profile.endorser_slow_mean = Duration::seconds(1);
    profile.endorser_slow_factor = 4.0;
    profile.expected_broker_outages = 0.7;
    profile.broker_outage_mean = Duration::millis(400);
    faults.profile = profile;
    return cfg;
}

struct Outcome {
    std::vector<client::TxRecord> records;
    core::MetricsCollector metrics;
};

Outcome drive(core::FabricNetwork& net, std::uint64_t total, double tps_per_client) {
    Outcome out;
    net.set_tx_sink([&out](const client::TxRecord& r) {
        out.records.push_back(r);
        out.metrics.record(r);
    });
    harness::Workload workload;
    for (std::size_t c = 0; c < net.clients().size(); ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = tps_per_client;
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

void check_invariants(core::FabricNetwork& net, const Outcome& out) {
    // (1) Block-sequence agreement across the ordering service.  The chaos
    // profile pairs every crash with a restart, so by drain time every OSN
    // has replayed the shared log in full.
    EXPECT_TRUE(net.osn_blocks_prefix_consistent());
    bool all_alive = true;
    for (const auto& osn : net.osns()) {
        EXPECT_EQ(osn->replay_hash_mismatches(), 0u);
        all_alive = all_alive && osn->alive();
    }
    EXPECT_TRUE(all_alive);
    if (all_alive) {
        EXPECT_TRUE(net.osn_blocks_identical());
    }

    // (2) Every committed ledger verifies end to end.
    for (const auto& peer : net.peers()) {
        EXPECT_TRUE(peer->chain().verify_chain());
        EXPECT_GT(peer->chain().height(), 0u);
    }

    // (3) No transaction commits twice: on any peer's chain a tx id carries
    // the VALID verdict at most once (resubmitted duplicates must land as
    // kDuplicateTxId, never as a second commit).
    const ledger::BlockStore& chain = net.peers().front()->chain();
    std::set<TxId> committed;
    for (std::size_t b = 0; b < chain.height(); ++b) {
        const ledger::Block& block = chain.at(b);
        ASSERT_EQ(block.validation_codes.size(), block.transactions.size());
        for (std::size_t i = 0; i < block.transactions.size(); ++i) {
            if (block.validation_codes[i] == TxValidationCode::kValid) {
                EXPECT_TRUE(committed.insert(block.transactions[i].tx_id()).second)
                    << "tx committed twice";
            }
        }
    }

    // (4) Exactly one terminal state per submission: nothing is left
    // pending, and every submitted tx is accounted committed / aborted /
    // failed-with-reason.
    std::uint64_t submitted = 0;
    for (const auto& client : net.clients()) {
        EXPECT_EQ(client->pending(), 0u);
        EXPECT_EQ(client->submitted(),
                  client->completed() + client->client_side_failures());
        submitted += client->submitted();
    }
    EXPECT_EQ(out.metrics.total(), submitted);
    EXPECT_EQ(out.records.size(), submitted);
}

TEST(ChaosTest, InvariantsHoldAcrossSeeds) {
    // The ISSUE requires the invariant suite to pass for >= 5 distinct seeds.
    for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u, 606u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        core::FabricNetwork net(chaos_config(seed));
        EXPECT_FALSE(net.fault_schedule().empty());
        const Outcome out = drive(net, 300, 50.0);
        check_invariants(net, out);
        // The fault mix must actually exercise the degradation machinery in
        // at least some runs; this seed set does (pinned by determinism).
        EXPECT_GT(net.faults_applied(), 0u);
    }
}

TEST(ChaosTest, ChaosRunIsAPureFunctionOfConfigAndSeed) {
    core::FabricNetwork a(chaos_config(777));
    core::FabricNetwork b(chaos_config(777));
    const Outcome ra = drive(a, 250, 50.0);
    const Outcome rb = drive(b, 250, 50.0);
    // Identical fault schedules...
    ASSERT_EQ(a.fault_schedule().size(), b.fault_schedule().size());
    for (std::size_t i = 0; i < a.fault_schedule().size(); ++i) {
        EXPECT_EQ(a.fault_schedule()[i].at, b.fault_schedule()[i].at);
        EXPECT_EQ(a.fault_schedule()[i].kind, b.fault_schedule()[i].kind);
        EXPECT_EQ(a.fault_schedule()[i].target, b.fault_schedule()[i].target);
    }
    // ...identical retry timelines (same retry/resubmission counters per
    // client), identical ledgers, and byte-identical metrics JSON.
    ASSERT_EQ(a.clients().size(), b.clients().size());
    for (std::size_t c = 0; c < a.clients().size(); ++c) {
        EXPECT_EQ(a.clients()[c]->endorse_retries(), b.clients()[c]->endorse_retries());
        EXPECT_EQ(a.clients()[c]->resubmissions(), b.clients()[c]->resubmissions());
        EXPECT_EQ(a.clients()[c]->endorse_timeouts(), b.clients()[c]->endorse_timeouts());
        EXPECT_EQ(a.clients()[c]->commit_timeouts(), b.clients()[c]->commit_timeouts());
    }
    EXPECT_EQ(a.peers().front()->chain().chain_fingerprint(),
              b.peers().front()->chain().chain_fingerprint());
    EXPECT_EQ(metrics_json(ra.metrics), metrics_json(rb.metrics));
}

TEST(ChaosTest, DifferentSeedsGiveDifferentChaos) {
    core::FabricNetwork a(chaos_config(11));
    core::FabricNetwork b(chaos_config(12));
    const Outcome ra = drive(a, 250, 50.0);
    const Outcome rb = drive(b, 250, 50.0);
    EXPECT_NE(metrics_json(ra.metrics), metrics_json(rb.metrics));
}

TEST(ChaosTest, ExplicitCrashWithoutRestartLeavesConsistentPrefixes) {
    // A hand-written fault plan: OSN 0 crashes at 800 ms and never comes
    // back.  Its block sequence must be a strict prefix of the survivors',
    // peers fed by it hold a valid (shorter) chain, and clients anchored to
    // those peers terminate via commit-timeout failure instead of hanging.
    core::NetworkConfig cfg = chaos_config(99);
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {{Duration::millis(800), fault::FaultKind::kOsnCrash, 0}};
    core::FabricNetwork net(cfg);
    const Outcome out = drive(net, 300, 50.0);

    EXPECT_EQ(net.faults_applied(), 1u);
    EXPECT_FALSE(net.osns()[0]->alive());
    EXPECT_TRUE(net.osn_blocks_prefix_consistent());
    EXPECT_LT(net.osns()[0]->block_hashes().size(),
              net.osns()[1]->block_hashes().size());
    for (const auto& peer : net.peers()) {
        EXPECT_TRUE(peer->chain().verify_chain());
    }
    std::uint64_t submitted = 0;
    for (const auto& client : net.clients()) {
        EXPECT_EQ(client->pending(), 0u);
        EXPECT_EQ(client->submitted(),
                  client->completed() + client->client_side_failures());
        submitted += client->submitted();
    }
    EXPECT_EQ(out.metrics.total(), submitted);
    // Peers 0 and 3 stream from the dead OSN, so their clients' later txs
    // must fail with the typed commit-timeout reason.
    EXPECT_GT(out.metrics.commit_timeout_failures(), 0u);
}

TEST(ChaosTest, EndorserOutageSurvivedByKofNPolicy) {
    // One endorser down for the whole run: with k=2-of-4 every transaction
    // can still gather a satisfying endorsement set after the timeout fires.
    core::NetworkConfig cfg = chaos_config(7);
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {{Duration::millis(1), fault::FaultKind::kEndorserDown, 1}};
    core::FabricNetwork net(cfg);
    const Outcome out = drive(net, 200, 50.0);

    EXPECT_GT(net.peers()[1]->proposals_dropped(), 0u);
    // Every submission still terminates, and the endorsement timeouts that
    // fired resolved via the partial-quorum path (k satisfied), so no
    // endorsement-timeout failures occur.
    std::uint64_t timeouts = 0;
    for (const auto& client : net.clients()) {
        EXPECT_EQ(client->pending(), 0u);
        timeouts += client->endorse_timeouts();
    }
    EXPECT_GT(timeouts, 0u);
    EXPECT_EQ(out.metrics.endorse_timeout_failures(), 0u);
    EXPECT_EQ(out.metrics.client_failures(), 0u);
    EXPECT_TRUE(net.chains_identical());
    EXPECT_TRUE(net.states_identical());
}

TEST(ChaosTest, FaultFreeRunWithRetryArmedSeesNoDegradation) {
    // Retry machinery enabled but no faults configured: timers must never
    // fire under light load and the degradation counters stay zero.
    core::NetworkConfig cfg = chaos_config(11);
    cfg.faults = {};
    ASSERT_FALSE(cfg.faults.enabled());
    cfg.client_params.retry.endorsement_timeout = Duration::millis(500);
    core::FabricNetwork net(cfg);
    const Outcome out = drive(net, 300, 50.0);

    EXPECT_EQ(out.metrics.committed_valid(), 300u);
    EXPECT_EQ(out.metrics.client_failures(), 0u);
    EXPECT_EQ(out.metrics.endorse_retries_total(), 0u);
    EXPECT_EQ(out.metrics.resubmissions_total(), 0u);
    for (const auto& client : net.clients()) {
        EXPECT_EQ(client->endorse_timeouts(), 0u);
        EXPECT_EQ(client->commit_timeouts(), 0u);
    }
    EXPECT_TRUE(net.osn_blocks_identical());
    EXPECT_TRUE(net.chains_identical());
}

TEST(ChaosTest, OsnCrashAndRestartReplaysToIdenticalChain) {
    // Crash OSN 1 mid-run and bring it back: Kafka-style replay from the
    // broker log must rebuild the exact block sequence (hash-verified
    // internally via replay_hash_mismatches).
    core::NetworkConfig cfg = chaos_config(31);
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(700), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(2200), fault::FaultKind::kOsnRestart, 1},
    };
    core::FabricNetwork net(cfg);
    drive(net, 300, 50.0);

    EXPECT_EQ(net.osns()[1]->crashes(), 1u);
    EXPECT_EQ(net.osns()[1]->restarts(), 1u);
    EXPECT_EQ(net.osns()[1]->replay_hash_mismatches(), 0u);
    EXPECT_TRUE(net.osns()[1]->alive());
    EXPECT_TRUE(net.osn_blocks_identical());
    EXPECT_TRUE(net.chains_identical());
    EXPECT_TRUE(net.states_identical());
}

TEST(ChaosTest, OsnCrashDuringReplayRedeliversNothing) {
    // Crash OSN 1 again 10 ms into its replay, while it has re-cut only a
    // prefix of the blocks its peer already holds.  The second replay must
    // still treat every pre-crash block as replayed: re-sending one used to
    // reach BlockStore::append on the peer and abort the whole run.
    core::NetworkConfig cfg = chaos_config(31);
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(1800), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(2200), fault::FaultKind::kOsnRestart, 1},
        {Duration::millis(2210), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(3000), fault::FaultKind::kOsnRestart, 1},
    };
    core::FabricNetwork net(cfg);
    drive(net, 300, 50.0);

    EXPECT_EQ(net.osns()[1]->crashes(), 2u);
    EXPECT_EQ(net.osns()[1]->restarts(), 2u);
    EXPECT_EQ(net.osns()[1]->replay_hash_mismatches(), 0u);
    EXPECT_TRUE(net.osn_blocks_identical());
    EXPECT_TRUE(net.chains_identical());
    EXPECT_TRUE(net.states_identical());
    for (const auto& peer : net.peers()) {
        EXPECT_EQ(peer->duplicate_blocks(), 0u);
        EXPECT_EQ(peer->held_blocks(), 0u);
        EXPECT_TRUE(peer->chain().verify_chain());
    }
}

}  // namespace
}  // namespace fl
