// Multi-channel configuration + engine tests.
//
// Covers the four contracts of core/multi_channel.h / harness/channels.h:
//   1. config validation — zero channels, duplicate ids — and per-channel
//      policy defaulting over the base NetworkConfig;
//   2. run_once parity: a 1-channel run (on one thread AND several)
//      reproduces harness::run_once bit for bit, and every channel of an
//      N-channel run matches its own run_once (metrics, fingerprints) and
//      its own 1-channel run, whose event counts sum to the N-channel one;
//   3. one-thread-vs-many differential over random seeds × channel counts:
//      every per-channel artifact, the event count and the cross-channel
//      meter totals agree;
//   4. observability: gauge prefixes and trace tags are well-formed and the
//      meter totals add up.
#include "core/multi_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/channels.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace fl::core {
namespace {

harness::Workload small_workload(std::size_t clients, std::uint64_t total_txs) {
    harness::Workload w;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 400.0 / static_cast<double>(clients);
        load.generate = harness::priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(total_txs);
    return w;
}

harness::MultiChannelSpec small_spec(std::size_t channels, std::uint64_t seed,
                                     std::uint64_t txs_per_channel = 120) {
    harness::MultiChannelSpec spec;
    spec.config = MultiChannelConfig::uniform(NetworkConfig{}, channels);
    const std::size_t clients = spec.config.base.clients;
    spec.make_workload = [clients, txs_per_channel](std::size_t) {
        return small_workload(clients, txs_per_channel);
    };
    spec.seed = seed;
    spec.capture_trace = true;
    return spec;
}

void expect_identical(const harness::MultiChannelResult& a,
                      const harness::MultiChannelResult& b,
                      const std::string& what) {
    ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        SCOPED_TRACE(what + ": channel " + std::to_string(i));
        EXPECT_EQ(a.channels[i].metrics_json, b.channels[i].metrics_json);
        EXPECT_EQ(a.channels[i].trace_jsonl, b.channels[i].trace_jsonl);
        EXPECT_EQ(a.channels[i].chain_fingerprint, b.channels[i].chain_fingerprint);
        EXPECT_EQ(a.channels[i].state_fingerprint, b.channels[i].state_fingerprint);
        EXPECT_EQ(a.channels[i].blocks, b.channels[i].blocks);
        EXPECT_TRUE(a.channels[i].consistent());
        EXPECT_TRUE(b.channels[i].consistent());
    }
    EXPECT_EQ(a.events_executed, b.events_executed) << what;
    EXPECT_EQ(a.meter.committed_per_channel, b.meter.committed_per_channel) << what;
    EXPECT_EQ(a.meter.completed_per_client, b.meter.completed_per_client) << what;
    EXPECT_EQ(a.meter.endorse_cpu_per_org, b.meter.endorse_cpu_per_org) << what;
}

// -- configuration validation + defaulting ----------------------------------

TEST(MultiChannelConfig, RejectsZeroChannels) {
    MultiChannelConfig cfg;
    cfg.channels.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(MultiChannelConfig, RejectsDuplicateChannelIds) {
    MultiChannelConfig cfg;
    cfg.channels.assign(2, ChannelSpec{});
    cfg.channels[0].id = ChannelId{7};
    cfg.channels[1].id = ChannelId{7};
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    // Auto ids collide with an explicit id too: base id 1 + index.
    MultiChannelConfig auto_cfg;
    auto_cfg.channels.assign(2, ChannelSpec{});
    auto_cfg.channels[1].id = ChannelId{1};  // == auto id of channel 0
    EXPECT_THROW(auto_cfg.validate(), std::invalid_argument);
}

TEST(MultiChannelConfig, AutoIdsFollowBaseChannelId) {
    MultiChannelConfig cfg = MultiChannelConfig::uniform(NetworkConfig{}, 3);
    EXPECT_NO_THROW(cfg.validate());
    // Base channel id is 1 (policy::ChannelConfig default).
    EXPECT_EQ(cfg.resolved_id(0).value(), 1u);
    EXPECT_EQ(cfg.resolved_id(1).value(), 2u);
    EXPECT_EQ(cfg.resolved_id(2).value(), 3u);
    cfg.channels[1].id = ChannelId{40};
    EXPECT_EQ(cfg.resolved_id(1).value(), 40u);
}

TEST(MultiChannelConfig, PerChannelPolicyDefaulting) {
    MultiChannelConfig cfg = MultiChannelConfig::uniform(NetworkConfig{}, 2);
    cfg.base.channel.block_size = 200;
    cfg.channels[1].priority_enabled = false;
    cfg.channels[1].block_size = 64;
    cfg.channels[1].block_timeout = Duration::millis(500);
    cfg.channels[1].consolidation_spec = "kofn:3";

    // Channel 0: pure base settings, only the id differs.
    const NetworkConfig c0 = cfg.channel_config(0);
    EXPECT_TRUE(c0.channel.priority_enabled);
    EXPECT_EQ(c0.channel.block_size, 200u);
    EXPECT_EQ(c0.channel.consolidation_spec, cfg.base.channel.consolidation_spec);
    EXPECT_EQ(c0.channel.id.value(), 1u);

    // Channel 1: overrides applied, everything else inherited.
    const NetworkConfig c1 = cfg.channel_config(1);
    EXPECT_FALSE(c1.channel.priority_enabled);
    EXPECT_EQ(c1.channel.block_size, 64u);
    EXPECT_EQ(c1.channel.block_timeout, Duration::millis(500));
    EXPECT_EQ(c1.channel.consolidation_spec, "kofn:3");
    EXPECT_EQ(c1.channel.priority_levels, cfg.base.channel.priority_levels);
    EXPECT_EQ(c1.channel.id.value(), 2u);
    EXPECT_EQ(c1.orgs, cfg.base.orgs);
}

TEST(MultiChannelConfig, ChannelSeedsAreDistinctAndStable) {
    EXPECT_EQ(channel_seed(42, 0), 42u);  // channel 0 keeps the run seed
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 16; ++i) seeds.push_back(channel_seed(42, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
    EXPECT_EQ(channel_seed(42, 5), channel_seed(42, 5));
    EXPECT_NE(channel_seed(42, 5), channel_seed(43, 5));
}

// -- legacy byte-identity ----------------------------------------------------

TEST(MultiChannelEngine, OneChannelMatchesLegacyRunOnceByteForByte) {
    const std::uint64_t seed = 42;
    harness::MultiChannelSpec spec = small_spec(1, seed);

    // Legacy single-network run with a trace attached the same way.
    harness::ExperimentSpec legacy;
    legacy.config = spec.config.channel_config(0);
    const std::size_t clients = legacy.config.clients;
    legacy.make_workload = [clients] { return small_workload(clients, 120); };
    obs::TraceSink sink;
    legacy.instrument = [&sink](FabricNetwork& net, unsigned) {
        net.set_trace_sink(&sink);
    };
    std::uint64_t chain_fp = 0;
    std::uint64_t state_fp = 0;
    legacy.run_probe = [&](FabricNetwork& net, std::map<std::string, double>&) {
        chain_fp = net.peers().front()->chain().chain_fingerprint();
        state_fp = net.peers().front()->state().fingerprint();
    };
    const harness::RunResult gold = harness::run_once(legacy, seed);
    std::ostringstream gold_metrics;
    write_metrics_json(gold_metrics, gold.metrics, nullptr);
    std::ostringstream gold_trace;
    sink.write_jsonl(gold_trace);

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        const harness::MultiChannelResult r =
            harness::run_multi_channel(spec, threads);
        ASSERT_EQ(r.channels.size(), 1u);
        EXPECT_EQ(r.channels[0].metrics_json, gold_metrics.str());
        EXPECT_EQ(r.channels[0].trace_jsonl, gold_trace.str());
        EXPECT_EQ(r.channels[0].chain_fingerprint, chain_fp);
        EXPECT_EQ(r.channels[0].state_fingerprint, state_fp);
        EXPECT_FALSE(r.channels[0].trace_jsonl.find("\"ch\":") == 0)
            << "1-channel traces must stay untagged";
    }

    // Audited: same seed and default AuditConfig on both sides; the metrics
    // JSON must match with its audit block included.
    spec.audit = obs::audit::AuditConfig{};
    legacy.audit = obs::audit::AuditConfig{};
    legacy.instrument = nullptr;
    const harness::RunResult audited_gold = harness::run_once(legacy, seed);
    ASSERT_TRUE(audited_gold.audit.has_value());
    std::ostringstream audited_metrics;
    write_metrics_json(audited_metrics, audited_gold.metrics, &*audited_gold.audit);
    ASSERT_NE(audited_metrics.str().find("\"audit\""), std::string::npos);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("audited, " + std::to_string(threads) + " thread(s)");
        const harness::MultiChannelResult r =
            harness::run_multi_channel(spec, threads);
        ASSERT_EQ(r.channels.size(), 1u);
        EXPECT_EQ(r.channels[0].metrics_json, audited_metrics.str());
    }
}

TEST(MultiChannelEngine, EveryChannelMatchesItsOwnRunOnce) {
    const std::uint64_t seed = 2027;
    harness::MultiChannelSpec spec = small_spec(3, seed, 90);
    spec.capture_trace = false;  // multi-channel traces carry a "ch" tag
    spec.config.channels[1].priority_enabled = false;
    spec.config.channels[2].block_size = 16;
    spec.config.channels[2].block_timeout = Duration::millis(500);
    spec.config.channels[2].ordering_backend = orderer::OrderingBackendKind::kRaft;
    const harness::MultiChannelResult r = harness::run_multi_channel(spec, 3);
    ASSERT_EQ(r.channels.size(), 3u);

    for (std::size_t i = 0; i < r.channels.size(); ++i) {
        SCOPED_TRACE("channel " + std::to_string(i));
        harness::ExperimentSpec single;
        single.config = spec.config.channel_config(i);
        single.make_workload = [&spec, i] { return spec.make_workload(i); };
        const harness::RunResult gold =
            harness::run_once(single, channel_seed(seed, i));
        EXPECT_EQ(r.channels[i].metrics_json, harness::metrics_json(gold));
        EXPECT_EQ(r.channels[i].chain_fingerprint, gold.chain_fingerprint);
        EXPECT_EQ(r.channels[i].state_fingerprint, gold.state_fingerprint);
        EXPECT_GT(gold.blocks, 0u);
    }
}

TEST(MultiChannelEngine, EventCountIsTheSumOfPerChannelDrains) {
    const std::uint64_t seed = 515;
    harness::MultiChannelSpec spec = small_spec(3, seed, 70);
    spec.capture_trace = false;
    spec.config.channels[1].priority_enabled = false;
    const harness::MultiChannelResult all = harness::run_multi_channel(spec, 2);
    ASSERT_EQ(all.channels.size(), 3u);

    // Each channel again, alone: same id, same config, its own seed.
    std::uint64_t summed = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE("channel " + std::to_string(i));
        harness::MultiChannelSpec one = spec;
        one.config.channels = {spec.config.channels[i]};
        one.config.channels[0].id = spec.config.resolved_id(i);
        one.make_workload = [&spec, i](std::size_t) {
            return spec.make_workload(i);
        };
        one.seed = channel_seed(seed, i);
        const harness::MultiChannelResult alone = harness::run_multi_channel(one, 1);
        ASSERT_EQ(alone.channels.size(), 1u);
        EXPECT_GT(alone.events_executed, 0u);
        EXPECT_EQ(alone.channels[0].metrics_json, all.channels[i].metrics_json);
        EXPECT_EQ(alone.meter.committed_per_channel[0],
                  all.meter.committed_per_channel[i]);
        summed += alone.events_executed;
    }
    EXPECT_EQ(all.events_executed, summed);
}

// -- serial vs parallel differential ------------------------------------------

TEST(MultiChannelEngine, SerialAndParallelEnginesAgreeAcrossSeedsAndCounts) {
    Rng rng(20260808);
    for (const std::size_t channels : {2u, 3u, 5u}) {
        for (int rep = 0; rep < 2; ++rep) {
            const std::uint64_t seed = rng.next_u64();
            harness::MultiChannelSpec spec = small_spec(channels, seed, 80);
            const harness::MultiChannelResult serial =
                harness::run_multi_channel(spec, 1);
            const harness::MultiChannelResult parallel =
                harness::run_multi_channel(spec, 4);
            expect_identical(serial, parallel,
                             std::to_string(channels) + " channels, seed " +
                                 std::to_string(seed));
            // Channels must actually differ from each other (distinct seeds).
            EXPECT_NE(serial.channels[0].trace_jsonl.substr(0, 400),
                      serial.channels[1].trace_jsonl.substr(0, 400));
        }
    }
}

TEST(MultiChannelEngine, HeterogeneousChannelPoliciesRunAndStayConsistent) {
    harness::MultiChannelSpec spec = small_spec(2, 7, 100);
    spec.config.channels[1].priority_enabled = false;  // vanilla-Fabric channel
    const harness::MultiChannelResult serial =
        harness::run_multi_channel(spec, 1);
    const harness::MultiChannelResult parallel =
        harness::run_multi_channel(spec, 2);
    expect_identical(serial, parallel, "heterogeneous policies");
    for (const auto& ch : serial.channels) {
        EXPECT_TRUE(ch.consistent());
        EXPECT_GT(ch.blocks, 0u);
    }
}

TEST(MultiChannelEngine, ThreadCountNeverChangesResults) {
    const harness::MultiChannelSpec spec = small_spec(4, 99, 60);
    const harness::MultiChannelResult a = harness::run_multi_channel(spec, 2);
    const harness::MultiChannelResult b = harness::run_multi_channel(spec, 8);
    expect_identical(a, b, "2 threads vs 8 threads");
}

// -- observability ------------------------------------------------------------

TEST(MultiChannelEngine, GaugesArePrefixedPerChannel) {
    MultiChannelConfig cfg = MultiChannelConfig::uniform(NetworkConfig{}, 2);
    MultiChannelNetwork net(std::move(cfg));
    obs::MetricRegistry registry;
    net.register_metrics(registry);  // duplicate names would throw here
    const auto& names = registry.names();
    const auto has = [&names](const std::string& n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("ch1_txs_valid"));
    EXPECT_TRUE(has("ch2_txs_valid"));
    EXPECT_TRUE(has("ch1_blocks_cut"));
    EXPECT_TRUE(has("ch2_queue_depth_p0"));
    EXPECT_FALSE(has("txs_valid"));  // nothing unprefixed
}

TEST(MultiChannelEngine, MultiChannelTracesCarryChannelTags) {
    const harness::MultiChannelSpec spec = small_spec(2, 11, 40);
    const harness::MultiChannelResult r = harness::run_multi_channel(spec, 2);
    ASSERT_EQ(r.channels.size(), 2u);
    for (const auto& ch : r.channels) {
        ASSERT_FALSE(ch.trace_jsonl.empty());
        const std::string expect =
            "{\"ch\":" + std::to_string(ch.id.value()) + ",";
        std::istringstream lines(ch.trace_jsonl);
        std::string line;
        while (std::getline(lines, line)) {
            ASSERT_EQ(line.rfind(expect, 0), 0u)
                << "line missing channel tag: " << line;
        }
    }
}

TEST(MultiChannelEngine, MeterTracksCommitsAndJain) {
    const harness::MultiChannelSpec spec = small_spec(2, 3, 100);
    const harness::MultiChannelResult r = harness::run_multi_channel(spec);
    std::uint64_t total = 0;
    for (const std::uint64_t c : r.meter.committed_per_channel) total += c;
    EXPECT_EQ(total, 200u);  // both channels drain their whole workload
    EXPECT_GT(r.meter.channel_jain_overall(), 0.9);  // uniform channels
    // Endorse CPU accrued on every org, on both channels.
    for (const double cpu : r.meter.endorse_cpu_per_org) EXPECT_GT(cpu, 0.0);
}

}  // namespace
}  // namespace fl::core
