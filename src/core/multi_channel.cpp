#include "core/multi_channel.h"

#include <stdexcept>
#include <unordered_set>

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

template <typename T>
T sum_of(const std::vector<T>& v) {
    T total{};
    for (const T& x : v) total += x;
    return total;
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
    if (sync_window <= Duration::zero()) {
        throw std::invalid_argument(
            "MultiChannelConfig: sync_window must be positive");
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
    const std::size_t n = nets_.size();
    prev_committed_.assign(n, 0);
    prev_org_cpu_.assign(config_.base.orgs, 0.0);
    prev_client_completed_.assign(config_.base.clients, 0);
    meter_.committed_per_channel.assign(n, 0);
    meter_.endorse_cpu_per_org.assign(config_.base.orgs, 0.0);
    meter_.completed_per_client.assign(config_.base.clients, 0);
}

void MultiChannelNetwork::register_metrics(obs::MetricRegistry& registry) {
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        nets_[i]->register_metrics(
            registry, "ch" + std::to_string(channel_id(i).value()) + "_");
    }
}

std::uint64_t MultiChannelNetwork::run(ThreadPool* pool) {
    const std::int64_t w = config_.sync_window.as_nanos();
    const std::size_t n = nets_.size();
    std::vector<std::uint64_t> counts(n, 0);
    std::uint64_t executed = 0;

    for (;;) {
        // Earliest pending event across channels decides the next window on
        // the origin-anchored grid; fully drained channels report max().
        TimePoint earliest = TimePoint::max();
        for (const auto& net : nets_) {
            const TimePoint t = net->next_event_time();
            if (t < earliest) earliest = t;
        }
        if (earliest == TimePoint::max()) break;

        const TimePoint window_end =
            TimePoint::from_nanos((earliest.as_nanos() / w + 1) * w);

        // Advance every channel to the window boundary.  Channels share no
        // state, so per-channel results cannot depend on the interleaving;
        // counts are written into pre-sized slots, never shared accumulators.
        if (pool != nullptr && n > 1) {
            parallel_for_each(*pool, n, [&](std::size_t c) {
                counts[c] = nets_[c]->advance_until(window_end);
            });
        } else {
            for (std::size_t c = 0; c < n; ++c) {
                counts[c] = nets_[c]->advance_until(window_end);
            }
        }
        for (std::uint64_t c : counts) executed += c;

        ++windows_;
        boundary_sample(window_end);
    }
    return executed;
}

void MultiChannelNetwork::boundary_sample(TimePoint window_end) {
    const std::size_t n = nets_.size();
    const std::uint32_t orgs = config_.base.orgs;
    const std::uint32_t per_org = config_.base.peers_per_org;
    const std::uint32_t clients = config_.base.clients;

    // Cumulative readings at this boundary (single-threaded, channel order).
    std::vector<std::uint64_t> committed(n, 0);
    std::vector<double> org_cpu(orgs, 0.0);
    std::vector<std::uint64_t> client_done(clients, 0);
    for (std::size_t c = 0; c < n; ++c) {
        FabricNetwork& net = *nets_[c];
        committed[c] = net.peers().empty() ? 0 : net.peers()[0]->txs_valid();
        for (std::size_t p = 0; p < net.peers().size(); ++p) {
            const std::size_t org = per_org == 0 ? 0 : p / per_org;
            if (org < org_cpu.size()) {
                org_cpu[org] +=
                    static_cast<double>(net.peers()[p]->endorse_cpu_busy().as_nanos()) /
                    1e9;
            }
        }
        for (std::size_t k = 0; k < net.clients().size() && k < client_done.size();
             ++k) {
            client_done[k] += net.clients()[k]->completed();
        }
    }

    CrossChannelMeter::Window win;
    win.end = window_end;
    win.committed_per_channel.resize(n);
    win.endorse_cpu_per_org.resize(orgs);
    win.completed_per_client.resize(clients);
    for (std::size_t c = 0; c < n; ++c) {
        win.committed_per_channel[c] = committed[c] - prev_committed_[c];
    }
    for (std::size_t o = 0; o < orgs; ++o) {
        win.endorse_cpu_per_org[o] = org_cpu[o] - prev_org_cpu_[o];
    }
    for (std::size_t k = 0; k < clients; ++k) {
        win.completed_per_client[k] = client_done[k] - prev_client_completed_[k];
    }
    win.channel_jain = jain_of_u64(win.committed_per_channel);
    win.client_jain = jain_of_u64(win.completed_per_client);

    if (sum_of(win.committed_per_channel) > 0 &&
        win.channel_jain < meter_.channel_jain_min) {
        meter_.channel_jain_min = win.channel_jain;
    }
    if (sum_of(win.completed_per_client) > 0 &&
        win.client_jain < meter_.client_jain_min) {
        meter_.client_jain_min = win.client_jain;
    }

    meter_.committed_per_channel = committed;
    meter_.endorse_cpu_per_org = org_cpu;
    meter_.completed_per_client = client_done;
    meter_.windows.push_back(std::move(win));

    prev_committed_ = std::move(committed);
    prev_org_cpu_ = std::move(org_cpu);
    prev_client_completed_ = std::move(client_done);
}

}  // namespace fl::core
