#include "core/multi_channel.h"

#include <stdexcept>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/audit/fairness.h"
#include "obs/metric_registry.h"

namespace fl::core {

namespace {

double jain_of_u64(const std::vector<std::uint64_t>& counts) {
    std::vector<double> shares;
    shares.reserve(counts.size());
    for (std::uint64_t c : counts) shares.push_back(static_cast<double>(c));
    return obs::audit::jain_index(shares);
}

}  // namespace

ChannelId MultiChannelConfig::resolved_id(std::size_t index) const {
    const ChannelSpec& spec = channels.at(index);
    if (spec.id.value() != 0) return spec.id;
    return ChannelId{base.channel.id.value() + index};
}

NetworkConfig MultiChannelConfig::channel_config(std::size_t index) const {
    const ChannelSpec& spec = channels.at(index);
    NetworkConfig cfg = base;
    cfg.channel.id = resolved_id(index);
    if (spec.priority_enabled) cfg.channel.priority_enabled = *spec.priority_enabled;
    if (spec.priority_levels) cfg.channel.priority_levels = *spec.priority_levels;
    if (spec.block_policy) cfg.channel.block_policy = *spec.block_policy;
    if (spec.consolidation_spec) cfg.channel.consolidation_spec = *spec.consolidation_spec;
    if (spec.block_size) cfg.channel.block_size = *spec.block_size;
    if (spec.block_timeout) cfg.channel.block_timeout = *spec.block_timeout;
    if (spec.ordering_backend) cfg.ordering_backend = *spec.ordering_backend;
    return cfg;
}

void MultiChannelConfig::validate() const {
    if (channels.empty()) {
        throw std::invalid_argument(
            "MultiChannelConfig: at least one channel is required");
    }
    std::unordered_set<std::uint64_t> ids;
    for (std::size_t i = 0; i < channels.size(); ++i) {
        if (!ids.insert(resolved_id(i).value()).second) {
            throw std::invalid_argument(
                "MultiChannelConfig: duplicate channel id " +
                std::to_string(resolved_id(i).value()));
        }
    }
}

MultiChannelConfig MultiChannelConfig::uniform(NetworkConfig base, std::size_t n) {
    MultiChannelConfig cfg;
    cfg.base = std::move(base);
    cfg.channels.assign(n, ChannelSpec{});
    return cfg;
}

std::uint64_t channel_seed(std::uint64_t run_seed, std::size_t index) {
    if (index == 0) return run_seed;  // 1-channel run == legacy bytes
    // Decorrelate from every other derive_seed consumer (sweep points use the
    // raw run seed as base) before drawing the per-channel stream.
    return derive_seed(run_seed ^ 0x4348414E4E454C53ull /* "CHANNELS" */,
                       static_cast<std::uint64_t>(index));
}

double CrossChannelMeter::channel_jain_overall() const {
    return jain_of_u64(committed_per_channel);
}

double CrossChannelMeter::client_jain_overall() const {
    return jain_of_u64(completed_per_client);
}

double CrossChannelMeter::org_cpu_jain_overall() const {
    return obs::audit::jain_index(endorse_cpu_per_org);
}

MultiChannelNetwork::MultiChannelNetwork(MultiChannelConfig config)
    : config_(std::move(config)) {
    config_.validate();
    nets_.reserve(config_.channel_count());
    for (std::size_t i = 0; i < config_.channel_count(); ++i) {
        NetworkConfig cfg = config_.channel_config(i);
        cfg.seed = channel_seed(config_.base.seed, i);
        nets_.push_back(std::make_unique<FabricNetwork>(std::move(cfg)));
    }
}

void MultiChannelNetwork::register_metrics(obs::MetricRegistry& registry) {
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        nets_[i]->register_metrics(
            registry, "ch" + std::to_string(channel_id(i).value()) + "_");
    }
}

std::uint64_t MultiChannelNetwork::run(unsigned threads) {
    // Channels share no state, so per-channel results cannot depend on which
    // thread drains which channel; counts go into pre-sized slots.
    std::vector<std::uint64_t> counts(nets_.size(), 0);
    parallel_for_each(threads, nets_.size(), [&](std::size_t c) {
        FabricNetwork& net = *nets_[c];
        const std::uint64_t before = net.events_executed();
        net.run();
        counts[c] = net.events_executed() - before;
    });
    std::uint64_t executed = 0;
    for (const std::uint64_t c : counts) executed += c;
    return executed;
}

CrossChannelMeter MultiChannelNetwork::meter() {
    const std::uint32_t per_org = config_.base.peers_per_org;
    CrossChannelMeter m;
    m.committed_per_channel.assign(nets_.size(), 0);
    m.endorse_cpu_per_org.assign(config_.base.orgs, 0.0);
    m.completed_per_client.assign(config_.base.clients, 0);
    for (std::size_t c = 0; c < nets_.size(); ++c) {
        FabricNetwork& net = *nets_[c];
        if (!net.peers().empty()) {
            m.committed_per_channel[c] = net.peers()[0]->txs_valid();
        }
        for (std::size_t p = 0; p < net.peers().size(); ++p) {
            const std::size_t org = per_org == 0 ? 0 : p / per_org;
            if (org < m.endorse_cpu_per_org.size()) {
                m.endorse_cpu_per_org[org] +=
                    static_cast<double>(net.peers()[p]->endorse_cpu_busy().as_nanos()) /
                    1e9;
            }
        }
        for (std::size_t k = 0;
             k < net.clients().size() && k < m.completed_per_client.size(); ++k) {
            m.completed_per_client[k] += net.clients()[k]->completed();
        }
    }
    return m;
}

}  // namespace fl::core
