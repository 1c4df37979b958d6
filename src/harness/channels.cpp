#include "harness/channels.h"

#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"

namespace fl::harness {

MultiChannelResult run_multi_channel(const MultiChannelSpec& spec,
                                     unsigned threads) {
    if (!spec.make_workload) {
        throw std::invalid_argument("run_multi_channel: no workload factory");
    }
    core::MultiChannelConfig config = spec.config;
    config.base.seed = spec.seed;
    core::MultiChannelNetwork engine(std::move(config));
    const std::size_t n = engine.channel_count();

    MultiChannelResult result;
    result.channels.resize(n);  // stable slots — the runs hold references
    std::vector<std::unique_ptr<obs::TraceSink>> traces(n);
    std::deque<NetworkRun> runs;
    for (std::size_t i = 0; i < n; ++i) {
        ChannelRunResult& ch = result.channels[i];
        ch.id = engine.channel_id(i);
        runs.emplace_back(
            engine.channel(i), ch, spec.make_workload(i), spec.audit,
            /*tx_probe=*/ExperimentSpec::TxProbe{}, [&, i](core::FabricNetwork& net) {
                if (spec.capture_trace) {
                    traces[i] = std::make_unique<obs::TraceSink>();
                    // Tag only real multi-channel runs: a 1-channel capture
                    // must stay byte-identical to the single-network harness.
                    if (n > 1) traces[i]->set_channel(ch.id.value());
                    net.set_trace_sink(traces[i].get());
                }
                if (spec.instrument) spec.instrument(net, i);
            });
    }

    result.events_executed = engine.run(threads);

    for (std::size_t i = 0; i < n; ++i) {
        ChannelRunResult& ch = result.channels[i];
        runs[i].collect();
        ch.metrics_json = metrics_json(ch);
        if (traces[i]) {
            std::ostringstream os;
            traces[i]->write_jsonl(os);
            ch.trace_jsonl = os.str();
        }
    }

    result.meter = engine.meter();
    return result;
}

}  // namespace fl::harness
