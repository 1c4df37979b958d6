// Property test for the paper's central consistency claim (§3.3): with
// unsynchronized local timers, multiple OSNs independently running the
// Multi-Queue Block Generator over the same totally-ordered queues cut
// IDENTICAL block sequences, because time-to-cut markers occupy fixed log
// positions.
//
// Sweeps random seeds x timer-skew configurations x block policies, with
// network jitter delaying each OSN's view of the queues differently.
#include <gtest/gtest.h>

#include <map>

#include "mq/broker.h"
#include "orderer/block_generator.h"
#include "orderer/record.h"

namespace fl::orderer {
namespace {

struct OsnSim {
    OsnId id;
    NodeId node;
    std::unique_ptr<MultiQueueBlockGenerator> gen;
    std::vector<CutResult> cuts;
};

struct Cluster {
    sim::Simulator sim;
    sim::Network net;
    mq::Broker broker;
    std::vector<std::unique_ptr<OsnSim>> osns;
    std::vector<std::string> topics;

    explicit Cluster(std::uint64_t seed)
        : net(sim, Rng(seed), jittery_link()), broker(net) {}

    static sim::LinkParams jittery_link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(500);
        p.jitter_stddev = Duration::micros(200);  // heavy reordering pressure
        return p;
    }

    void build(std::size_t n_osns, std::vector<std::uint32_t> quotas,
               std::uint32_t block_size, Duration timeout, Duration max_skew,
               std::uint64_t seed, Duration consume_per_record = Duration::zero()) {
        for (std::size_t i = 0; i < quotas.size(); ++i) {
            topics.push_back("p" + std::to_string(i));
            broker.create_topic(topics.back());
        }
        Rng rng(seed);
        for (std::size_t i = 0; i < n_osns; ++i) {
            auto osn = std::make_unique<OsnSim>();
            osn->id = OsnId{i};
            osn->node = NodeId{500 + i};
            GeneratorConfig cfg;
            cfg.quotas = quotas;
            cfg.block_size = block_size;
            cfg.timeout = timeout;
            cfg.clock_skew =
                Duration::from_seconds(rng.uniform(0.0, max_skew.as_seconds()));
            cfg.consume_per_record = consume_per_record;
            cfg.consume_burst = 16;
            MultiQueueBlockGenerator::Subscriptions subs;
            for (const std::string& t : topics) {
                subs.push_back(broker.subscribe(t, osn->node));
            }
            OsnSim* raw = osn.get();
            osn->gen = std::make_unique<MultiQueueBlockGenerator>(
                sim, cfg, std::move(subs),
                [this, raw](BlockNumber bn) {
                    for (const std::string& t : topics) {
                        broker.produce(t, raw->node, 24,
                                       OrderedRecord::time_to_cut(bn, raw->id));
                    }
                },
                [raw](CutResult r) { raw->cuts.push_back(std::move(r)); });
            osns.push_back(std::move(osn));
        }
    }

    void random_traffic(std::uint64_t seed, int txs, double mean_gap_ms,
                        const std::vector<double>& level_weights) {
        Rng rng(seed);
        TimePoint at = TimePoint::origin();
        for (int i = 0; i < txs; ++i) {
            at += Duration::from_seconds(rng.exponential(mean_gap_ms / 1000.0));
            double pick = rng.uniform(0.0, 1.0);
            std::size_t level = 0;
            double acc = 0.0;
            for (std::size_t l = 0; l < level_weights.size(); ++l) {
                acc += level_weights[l];
                if (pick < acc) {
                    level = l;
                    break;
                }
                level = l;
            }
            // A baseline (single-topic) cluster funnels every class into
            // topic 0, as the real OSN does when priorities are disabled.
            level = std::min(level, topics.size() - 1);
            auto env = std::make_shared<ledger::Envelope>();
            env->proposal.tx_id = TxId{static_cast<std::uint64_t>(i + 1)};
            env->consolidated_priority = static_cast<PriorityLevel>(level);
            sim.schedule_at(at, [this, level, env] {
                broker.produce(topics[level], NodeId{900}, 100,
                               OrderedRecord::transaction(env));
            });
        }
    }

    /// Flattened (block -> tx ids) sequence per OSN.
    std::vector<std::vector<std::uint64_t>> sequence(std::size_t osn) const {
        std::vector<std::vector<std::uint64_t>> out;
        for (const CutResult& cut : osns[osn]->cuts) {
            std::vector<std::uint64_t> ids;
            for (const auto& env : cut.transactions) {
                ids.push_back(env->proposal.tx_id.value());
            }
            out.push_back(std::move(ids));
        }
        return out;
    }
};

struct Params {
    std::uint64_t seed;
    std::vector<std::uint32_t> quotas;
    std::uint32_t block_size;
    double skew_ms;
    /// Consume-loop cost (0 = unlimited) — the rate-limited path must be
    /// just as deterministic as the unlimited one.
    std::int64_t consume_us = 0;
};

class TtcDeterminismSweep : public ::testing::TestWithParam<Params> {};

TEST_P(TtcDeterminismSweep, AllOsnsCutIdenticalBlocks) {
    const Params p = GetParam();
    Cluster cluster(p.seed);
    cluster.build(/*n_osns=*/3, p.quotas, p.block_size, Duration::millis(100),
                  Duration::millis(p.skew_ms > 0 ? static_cast<std::int64_t>(p.skew_ms)
                                                 : 0),
                  p.seed * 31 + 7, Duration::micros(p.consume_us));
    cluster.random_traffic(p.seed * 17 + 3, /*txs=*/400, /*mean_gap_ms=*/2.0,
                           {0.25, 0.5, 0.25});
    cluster.sim.run();

    const auto reference = cluster.sequence(0);
    ASSERT_FALSE(reference.empty());
    std::size_t total = 0;
    for (const auto& block : reference) {
        total += block.size();
        EXPECT_FALSE(block.empty());  // the protocol never cuts empty blocks
    }
    EXPECT_EQ(total, 400u);  // nothing lost, nothing duplicated

    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(cluster.sequence(i), reference)
            << "OSN " << i << " diverged (seed=" << p.seed << ")";
    }
}

std::vector<Params> sweep_params() {
    std::vector<Params> out;
    const std::vector<std::vector<std::uint32_t>> policies = {
        {10, 20, 10},   // balanced-ish
        {20, 15, 5},    // skewed
        {40, 0, 0},     // best-effort lower levels
        {40},           // single queue (vanilla Fabric baseline)
    };
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            std::uint32_t bs = 0;
            for (const std::uint32_t q : policies[pi]) bs += q;
            out.push_back(Params{seed * 1000 + pi, policies[pi], bs, 40.0});
        }
    }
    // Extreme skew cases.
    out.push_back(Params{777, {10, 20, 10}, 40, 90.0});
    out.push_back(Params{778, {10, 20, 10}, 40, 0.0});
    // Rate-limited consume loop (the production capacity model): the
    // 400 txs arrive at ~500 tps against ~285 rec/s capacity, so queues
    // back up and the surplus/TTC machinery works through deep backlogs.
    for (std::uint64_t seed = 50; seed < 55; ++seed) {
        out.push_back(Params{seed, {10, 20, 10}, 40, 60.0, /*consume_us=*/3500});
    }
    out.push_back(Params{60, {40, 0, 0}, 40, 60.0, /*consume_us=*/3500});
    return out;
}

INSTANTIATE_TEST_SUITE_P(SeedsPoliciesSkews, TtcDeterminismSweep,
                         ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace fl::orderer
