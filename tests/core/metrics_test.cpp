// MetricsCollector: accounting, per-dimension histograms, phase breakdowns,
// and NetworkConfig/FabricNetwork construction validation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/fabric_network.h"
#include "core/metrics.h"
#include "obs/audit/audit.h"

namespace fl::core {
namespace {

client::TxRecord make_record(std::uint64_t id, PriorityLevel priority,
                             double latency_s, TxValidationCode code,
                             std::uint64_t client = 0) {
    client::TxRecord r;
    r.tx_id = TxId{id};
    r.client = ClientId{client};
    r.chaincode = "cc";
    r.priority = priority;
    r.submitted_at = TimePoint::origin();
    r.broadcast_at = TimePoint::origin() + Duration::from_seconds(latency_s * 0.1);
    r.block_cut_at = TimePoint::origin() + Duration::from_seconds(latency_s * 0.7);
    r.committed_at = TimePoint::origin() + Duration::from_seconds(latency_s * 0.9);
    r.completed_at = TimePoint::origin() + Duration::from_seconds(latency_s);
    r.code = code;
    return r;
}

TEST(MetricsTest, CountsByOutcome) {
    MetricsCollector m;
    m.record(make_record(1, 0, 1.0, TxValidationCode::kValid));
    m.record(make_record(2, 0, 1.0, TxValidationCode::kMvccReadConflict));
    client::TxRecord failed = make_record(3, 0, 1.0, TxValidationCode::kValid);
    failed.failed_before_ordering = true;
    m.record(failed);
    EXPECT_EQ(m.committed_valid(), 1u);
    EXPECT_EQ(m.committed_invalid(), 1u);
    EXPECT_EQ(m.client_failures(), 1u);
    EXPECT_EQ(m.total(), 3u);
}

TEST(MetricsTest, OnlyValidTxsEnterLatencyStats) {
    MetricsCollector m;
    m.record(make_record(1, 0, 2.0, TxValidationCode::kValid));
    m.record(make_record(2, 0, 100.0, TxValidationCode::kWriteConflict));
    EXPECT_EQ(m.overall().count(), 1u);
    EXPECT_NEAR(m.avg_latency(), 2.0, 1e-9);
}

TEST(MetricsTest, PerPriorityAndPerClientBuckets) {
    MetricsCollector m;
    m.record(make_record(1, 0, 1.0, TxValidationCode::kValid, 0));
    m.record(make_record(2, 2, 3.0, TxValidationCode::kValid, 1));
    m.record(make_record(3, 2, 5.0, TxValidationCode::kValid, 1));
    EXPECT_NEAR(m.avg_latency_for_priority(0), 1.0, 1e-9);
    EXPECT_NEAR(m.avg_latency_for_priority(2), 4.0, 1e-9);
    EXPECT_EQ(m.avg_latency_for_priority(1), 0.0);  // no traffic
    EXPECT_NEAR(m.avg_latency_for_client(ClientId{1}), 4.0, 1e-9);
}

TEST(MetricsTest, PhaseBreakdownSumsToLatency) {
    MetricsCollector m;
    m.record(make_record(1, 1, 2.0, TxValidationCode::kValid));
    const auto& phases = m.phases_by_priority().at(1);
    const double total = phases.endorsement.mean() + phases.ordering.mean() +
                         phases.validation.mean() + phases.notification.mean();
    EXPECT_NEAR(total, 2.0, 1e-9);
    EXPECT_NEAR(phases.endorsement.mean(), 0.2, 1e-9);
    EXPECT_NEAR(phases.ordering.mean(), 1.2, 1e-9);   // 0.7 - 0.1
    EXPECT_NEAR(phases.validation.mean(), 0.4, 1e-9);  // 0.9 - 0.7
    EXPECT_NEAR(phases.notification.mean(), 0.2, 1e-9);
}

TEST(MetricsTest, ThroughputOverMeasurementSpan) {
    MetricsCollector m;
    for (int i = 0; i < 10; ++i) {
        auto r = make_record(static_cast<std::uint64_t>(i), 0, 1.0,
                             TxValidationCode::kValid);
        r.submitted_at = TimePoint::origin() + Duration::seconds(i);
        r.completed_at = r.submitted_at + Duration::seconds(1);
        m.record(r);
    }
    // 10 txs over a [0, 10s] span.
    EXPECT_NEAR(m.throughput_tps(), 1.0, 1e-9);
}

TEST(MetricsTest, EmptyCollectorSafe) {
    MetricsCollector m;
    EXPECT_EQ(m.avg_latency(), 0.0);
    EXPECT_EQ(m.throughput_tps(), 0.0);
    EXPECT_EQ(m.total(), 0u);
}

// ------------------------------------------------------ degradation counters

TEST(MetricsTest, DegradationCountedForEveryTerminalRecord) {
    MetricsCollector m;
    // Committed after one endorse retry.
    auto committed = make_record(1, 0, 1.0, TxValidationCode::kValid);
    committed.endorse_retries = 1;
    m.record(committed);
    // Aborted (invalid) after a resubmission.
    auto aborted = make_record(2, 0, 1.0, TxValidationCode::kMvccReadConflict);
    aborted.resubmissions = 1;
    m.record(aborted);
    // Client-side endorsement-timeout failure: retries must still count even
    // though the record short-circuits out of the latency stats.
    auto failed = make_record(3, 0, 1.0, TxValidationCode::kEndorsementTimeout);
    failed.failed_before_ordering = true;
    failed.endorse_retries = 2;
    m.record(failed);
    // Commit-timeout failure after exhausting resubmissions.
    auto timed_out = make_record(4, 0, 1.0, TxValidationCode::kCommitTimeout);
    timed_out.failed_before_ordering = true;
    timed_out.resubmissions = 3;
    m.record(timed_out);

    EXPECT_EQ(m.endorse_retries_total(), 3u);
    EXPECT_EQ(m.resubmissions_total(), 4u);
    EXPECT_EQ(m.endorse_timeout_failures(), 1u);
    EXPECT_EQ(m.commit_timeout_failures(), 1u);
    ASSERT_TRUE(m.degradation_by_chaincode().contains("cc"));
    EXPECT_EQ(m.degradation_by_chaincode().at("cc").endorse_retries, 3u);
    EXPECT_EQ(m.degradation_by_chaincode().at("cc").resubmissions, 4u);
}

TEST(MetricsTest, DegradationJsonSchemaPinned) {
    MetricsCollector m;
    auto r = make_record(1, 0, 1.0, TxValidationCode::kValid);
    r.chaincode = "asset_transfer";
    r.endorse_retries = 3;
    r.resubmissions = 2;
    m.record(r);
    auto failed = make_record(2, 0, 1.0, TxValidationCode::kCommitTimeout);
    failed.failed_before_ordering = true;
    m.record(failed);

    std::ostringstream os;
    write_metrics_json(os, m);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"degradation\": {"), std::string::npos);
    EXPECT_NE(json.find("\"endorse_retries\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"resubmissions\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"endorse_timeout_failures\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"commit_timeout_failures\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"by_chaincode\""), std::string::npos);
    EXPECT_NE(json.find("\"asset_transfer\""), std::string::npos);
}

TEST(MetricsTest, DegradationBlockAlwaysPresentWithZeros) {
    // Schema stability: fault-free runs emit the same keys, all zero, so
    // JSON consumers need no fallback paths.
    MetricsCollector m;
    m.record(make_record(1, 0, 1.0, TxValidationCode::kValid));
    std::ostringstream os;
    write_metrics_json(os, m);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"degradation\": {"), std::string::npos);
    EXPECT_NE(json.find("\"endorse_retries\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"resubmissions\": 0"), std::string::npos);
    // No retries recorded -> the per-chaincode degradation map is empty.
    EXPECT_NE(json.find("\"by_chaincode\": {}"), std::string::npos);
}

// --------------------------------------------- percentile + audit JSON schema

TEST(MetricsTest, PhaseLatencyByPriorityJsonSchemaPinned) {
    MetricsCollector m;
    // 100 txs at level 1 with latencies 0.01..1.00 s: the histogram's
    // percentile estimates are well-populated and deterministic.
    for (int i = 1; i <= 100; ++i) {
        m.record(make_record(static_cast<std::uint64_t>(i), 1, i * 0.01,
                             TxValidationCode::kValid));
    }
    std::ostringstream os;
    write_metrics_json(os, m);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"phase_latency_by_priority\": {"), std::string::npos);
    EXPECT_NE(json.find("\"1\": {"), std::string::npos);
    for (const char* phase : {"\"endorsement\"", "\"ordering\"",
                              "\"validation\"", "\"notification\""}) {
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
    }
    for (const char* key : {"\"count\"", "\"mean_s\"", "\"p50_s\"", "\"p95_s\"",
                            "\"p99_s\"", "\"min_s\"", "\"max_s\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(MetricsTest, PercentilesOrderedAndBracketedByEnvelope) {
    MetricsCollector m;
    for (int i = 1; i <= 100; ++i) {
        m.record(make_record(static_cast<std::uint64_t>(i), 0, i * 0.01,
                             TxValidationCode::kValid));
    }
    const Histogram& overall = m.overall();
    EXPECT_EQ(overall.count(), 100u);
    EXPECT_LE(overall.min(), overall.percentile(50.0));
    EXPECT_LE(overall.percentile(50.0), overall.percentile(95.0));
    EXPECT_LE(overall.percentile(95.0), overall.percentile(99.0));
    EXPECT_LE(overall.percentile(99.0), overall.max());
    // Uniform 0.01..1.00 s: the median estimate must land near 0.5 s.
    EXPECT_NEAR(overall.percentile(50.0), 0.5, 0.1);
}

TEST(MetricsTest, AuditBlockOnlyWithReport) {
    MetricsCollector m;
    m.record(make_record(1, 0, 1.0, TxValidationCode::kValid));

    std::ostringstream without;
    write_metrics_json(without, m);
    EXPECT_EQ(without.str().find("\"audit\""), std::string::npos);

    // The 3-arg overload with nullptr is the 2-arg overload, byte for byte.
    std::ostringstream with_null;
    write_metrics_json(with_null, m, nullptr);
    EXPECT_EQ(without.str(), with_null.str());

    obs::audit::AuditReport report;
    report.window_s = 1.0;
    report.alarm_trips = 2;
    std::ostringstream with_audit;
    write_metrics_json(with_audit, m, &report);
    const std::string json = with_audit.str();
    EXPECT_NE(json.find("\"audit\""), std::string::npos);
    EXPECT_NE(json.find("\"alarm_trips\""), std::string::npos);
    EXPECT_NE(json.find("\"priority_inversions\""), std::string::npos);
}

// --------------------------------------------------------- config validation

TEST(NetworkConfigTest, RejectsZeroComponents) {
    for (int field = 0; field < 4; ++field) {
        NetworkConfig cfg;
        if (field == 0) cfg.orgs = 0;
        if (field == 1) cfg.peers_per_org = 0;
        if (field == 2) cfg.osns = 0;
        if (field == 3) cfg.clients = 0;
        EXPECT_THROW(FabricNetwork net(cfg), std::invalid_argument) << field;
    }
}

TEST(NetworkConfigTest, EndorsementKClampedToOrgs) {
    NetworkConfig cfg;
    cfg.orgs = 3;
    cfg.endorsement_k = 99;
    FabricNetwork net(cfg);  // must not throw
    EXPECT_EQ(net.config().orgs, 3u);
}

TEST(NetworkConfigTest, PeersPerOrgMultipliesPeers) {
    NetworkConfig cfg;
    cfg.orgs = 3;
    cfg.peers_per_org = 2;
    FabricNetwork net(cfg);
    EXPECT_EQ(net.peers().size(), 6u);
    // Two peers of the same org share the org id but not the identity.
    EXPECT_EQ(net.peers()[0]->org(), net.peers()[1]->org());
    EXPECT_NE(net.peers()[0]->identity().name, net.peers()[1]->identity().name);
}

TEST(NetworkConfigTest, BaselineModeHasSingleTopic) {
    NetworkConfig cfg;
    cfg.channel.priority_enabled = false;
    cfg.channel.priority_levels = 3;
    FabricNetwork net(cfg);
    EXPECT_TRUE(net.ordering().has_topic(cfg.channel.topic_for_level(0)));
    EXPECT_FALSE(net.ordering().has_topic(cfg.channel.topic_for_level(1)));
}

TEST(NetworkConfigTest, PriorityModeHasTopicPerLevel) {
    NetworkConfig cfg;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    FabricNetwork net(cfg);
    for (PriorityLevel l = 0; l < 3; ++l) {
        EXPECT_TRUE(net.ordering().has_topic(cfg.channel.topic_for_level(l)));
    }
}

}  // namespace
}  // namespace fl::core
