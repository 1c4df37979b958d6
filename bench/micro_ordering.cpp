// Microbenchmarks M3/M4 — ordering-side costs: priority consolidation
// policies and the Multi-Queue Block Generator's per-block work.
#include <benchmark/benchmark.h>

#include "mq/broker.h"
#include "orderer/block_generator.h"
#include "policy/consolidation_policy.h"

namespace {

using namespace fl;

void BM_ConsolidationPolicy(benchmark::State& state) {
    const char* specs[] = {"kofn:2", "average", "median", "best", "worst"};
    const auto policy =
        policy::make_consolidation_policy(specs[state.range(0)]);
    const std::vector<PriorityLevel> votes = {1, 1, 2, 1, 0, 1, 1, 2};
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->consolidate(votes, 3));
    }
    state.SetLabel(specs[state.range(0)]);
}
BENCHMARK(BM_ConsolidationPolicy)->DenseRange(0, 4);

/// Full Algorithm-1 cycle: N backlogged queues -> one 500-tx block.
void BM_MultiQueueBlockGeneration(benchmark::State& state) {
    const std::uint32_t levels = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator sim;
        sim::LinkParams link;
        link.base_latency = Duration::zero();
        link.jitter_stddev = Duration::zero();
        sim::Network net(sim, Rng(1), link);
        mq::Broker broker(net);
        orderer::GeneratorConfig cfg;
        cfg.block_size = 500;
        cfg.timeout = Duration::seconds(10);
        std::uint32_t per = 500 / levels;
        cfg.quotas.assign(levels, per);
        cfg.quotas[0] += 500 - per * levels;
        orderer::MultiQueueBlockGenerator::Subscriptions subs;
        for (std::uint32_t l = 0; l < levels; ++l) {
            broker.create_topic("p" + std::to_string(l));
            subs.push_back(broker.subscribe("p" + std::to_string(l), NodeId{1}));
        }
        std::size_t cuts = 0;
        auto env = std::make_shared<ledger::Envelope>();
        orderer::MultiQueueBlockGenerator gen(
            sim, cfg, std::move(subs), [](BlockNumber) {},
            [&cuts](orderer::CutResult) { ++cuts; });
        for (std::uint32_t l = 0; l < levels; ++l) {
            for (std::uint32_t i = 0; i < cfg.quotas[l]; ++i) {
                broker.produce("p" + std::to_string(l), NodeId{2}, 100,
                               orderer::OrderedRecord::transaction(env));
            }
        }
        state.ResumeTiming();
        sim.run();
        benchmark::DoNotOptimize(cuts);
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_MultiQueueBlockGeneration)->Arg(1)->Arg(3)->Arg(8);

}  // namespace
