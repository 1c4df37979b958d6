// Multi-channel configuration + channel-sharded engine tests.
//
// Covers the four contracts of core/multi_channel.h / harness/channels.h:
//   1. config validation — zero channels, duplicate ids, bad sync window —
//      and per-channel policy defaulting over the base NetworkConfig;
//   2. 1-channel legacy byte-identity: the sharded engine (on one thread
//      AND several) reproduces harness::run_once bit for bit;
//   3. one-thread-vs-many differential over random seeds × channel counts:
//      every per-channel artifact and the cross-channel meter agree;
//   4. engine-knob invariance: sync_window and thread count never change
//      per-channel bytes; gauge prefixes and trace tags are well-formed.
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
    ASSERT_EQ(a.meter.windows.size(), b.meter.windows.size()) << what;
    for (std::size_t w = 0; w < a.meter.windows.size(); ++w) {
        SCOPED_TRACE(what + ": meter window " + std::to_string(w));
        EXPECT_EQ(a.meter.windows[w].end, b.meter.windows[w].end);
        EXPECT_EQ(a.meter.windows[w].committed_per_channel,
                  b.meter.windows[w].committed_per_channel);
        EXPECT_EQ(a.meter.windows[w].endorse_cpu_per_org,
                  b.meter.windows[w].endorse_cpu_per_org);
        EXPECT_EQ(a.meter.windows[w].completed_per_client,
                  b.meter.windows[w].completed_per_client);
        EXPECT_EQ(a.meter.windows[w].channel_jain, b.meter.windows[w].channel_jain);
        EXPECT_EQ(a.meter.windows[w].client_jain, b.meter.windows[w].client_jain);
    }
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

TEST(MultiChannelConfig, RejectsNonPositiveSyncWindow) {
    MultiChannelConfig cfg;
    cfg.sync_window = Duration::zero();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
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

// -- engine-knob invariance ---------------------------------------------------

TEST(MultiChannelEngine, SyncWindowNeverChangesPerChannelBytes) {
    harness::MultiChannelSpec coarse = small_spec(3, 1234, 80);
    harness::MultiChannelSpec fine = coarse;
    coarse.config.sync_window = Duration::millis(400);
    fine.config.sync_window = Duration::millis(50);
    const harness::MultiChannelResult a = harness::run_multi_channel(coarse);
    const harness::MultiChannelResult b = harness::run_multi_channel(fine);
    ASSERT_EQ(a.channels.size(), b.channels.size());
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        EXPECT_EQ(a.channels[i].metrics_json, b.channels[i].metrics_json);
        EXPECT_EQ(a.channels[i].trace_jsonl, b.channels[i].trace_jsonl);
        EXPECT_EQ(a.channels[i].chain_fingerprint, b.channels[i].chain_fingerprint);
    }
    // The meter cadence is the knob that DOES move; cumulative totals agree.
    EXPECT_GT(b.meter.windows.size(), a.meter.windows.size());
    EXPECT_EQ(a.meter.committed_per_channel, b.meter.committed_per_channel);
    EXPECT_EQ(a.meter.completed_per_client, b.meter.completed_per_client);
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
    EXPECT_GT(r.meter.windows.size(), 0u);
    EXPECT_GT(r.meter.channel_jain_overall(), 0.9);  // uniform channels
    EXPECT_LE(r.meter.channel_jain_min, 1.0);
    // Endorse CPU accrued on every org, on both channels.
    for (const double cpu : r.meter.endorse_cpu_per_org) EXPECT_GT(cpu, 0.0);
}

}  // namespace
}  // namespace fl::core
