// Microbenchmarks M2 — the message-queue substrate: append + fan-out cost
// per record, and end-to-end simulated delivery throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mq/broker.h"

namespace {

using namespace fl;

/// One shared envelope: the micros time the log, not record construction.
orderer::OrderedRecord record() {
    static const auto env = std::make_shared<const ledger::Envelope>();
    return orderer::OrderedRecord::transaction(env);
}

void BM_ProduceLocalNoSubscribers(benchmark::State& state) {
    sim::Simulator sim;
    sim::Network net(sim, Rng(1));
    mq::Broker broker(net);
    broker.create_topic("t");
    for (auto _ : state) {
        broker.produce_local("t", 100, record());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProduceLocalNoSubscribers);

void BM_ProduceFanout(benchmark::State& state) {
    // Cost of appending + pushing to N subscribers (simulated network sends).
    const auto subs = state.range(0);
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator sim;
        sim::Network net(sim, Rng(1));
        mq::Broker broker(net);
        broker.create_topic("t");
        std::vector<std::shared_ptr<orderer::Subscription>> holders;
        for (std::int64_t s = 0; s < subs; ++s) {
            holders.push_back(broker.subscribe("t", NodeId{static_cast<std::uint64_t>(s)}));
        }
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i) {
            broker.produce_local("t", 100, record());
        }
        sim.run();
        benchmark::DoNotOptimize(holders.front()->ready_count());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ProduceFanout)->Arg(1)->Arg(3)->Arg(12);

void BM_SubscriptionReorderBuffer(benchmark::State& state) {
    // In-order delivery through deliberately jittered pushes.
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator sim;
        sim::LinkParams link;
        link.jitter_stddev = Duration::micros(300);
        sim::Network net(sim, Rng(7), link);
        mq::Broker broker(net);
        broker.create_topic("t");
        auto sub = broker.subscribe("t", NodeId{5});
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i) {
            broker.produce("t", NodeId{1}, 100, record());
        }
        sim.run();
        int consumed = 0;
        while (sub->has_ready()) {
            benchmark::DoNotOptimize(sub->pop());
            ++consumed;
        }
        benchmark::DoNotOptimize(consumed);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SubscriptionReorderBuffer);

}  // namespace
