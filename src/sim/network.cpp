#include "sim/network.h"

namespace fl::sim {

Network::Network(Simulator& sim, Rng rng, LinkParams defaults)
    : sim_(sim), defaults_(defaults), stream_base_(rng.next_u64()) {}

void Network::set_link(NodeId from, NodeId to, LinkParams params) {
    overrides_[{from, to}] = params;
}

void Network::set_message_faults(MessageFaultParams params, Rng rng) {
    faults_ = params;
    fault_rng_ = rng;
}

const LinkParams& Network::params_for(NodeId from, NodeId to) const {
    const auto it = overrides_.find({from, to});
    return it == overrides_.end() ? defaults_ : it->second;
}

Rng& Network::jitter_stream(NodeId from) {
    auto it = sender_jitter_.find(from.value());
    if (it == sender_jitter_.end()) {
        it = sender_jitter_
                 .emplace(from.value(), Rng(derive_seed(stream_base_, from.value())))
                 .first;
    }
    return it->second;
}

Duration Network::sample_delay(NodeId from, NodeId to, std::size_t size_bytes) {
    const LinkParams& p = params_for(from, to);
    const double transmit_s =
        p.bandwidth_bps > 0.0 ? static_cast<double>(size_bytes) * 8.0 / p.bandwidth_bps : 0.0;
    const double jitter_s = jitter_stream(from).normal(
        0.0, p.jitter_stddev.as_seconds(), /*non_negative=*/false);
    double total = p.base_latency.as_seconds() + transmit_s + jitter_s;
    if (total < 0.0) total = 0.0;
    return Duration::from_seconds(total);
}

void Network::send(NodeId from, NodeId to, std::size_t size_bytes, EventFn deliver) {
    if (!faults_.any()) {
        send_reliable(from, to, size_bytes, std::move(deliver));
        return;
    }
    // Fixed draw order (drop, delay, dup) keeps the fault stream aligned
    // with the message sequence regardless of outcomes.
    if (fault_rng_.chance(faults_.drop_prob)) {
        ++dropped_;
        return;
    }
    ++messages_;
    bytes_ += size_bytes;
    Duration delay = sample_delay(from, to, size_bytes);
    if (fault_rng_.chance(faults_.delay_prob)) {
        delay = delay + fault_rng_.exponential_duration(faults_.delay_mean);
        ++delayed_;
    }
    if (fault_rng_.chance(faults_.dup_prob)) {
        // The duplicate models a retransmitted datagram: it arrives strictly
        // after the original, offset by an exponential retransmission gap.
        ++duplicated_;
        ++messages_;
        bytes_ += size_bytes;
        const Duration dup_delay =
            delay + fault_rng_.exponential_duration(faults_.delay_mean);
        sim_.schedule_after_on(dup_delay, to.value(), EventFn(deliver));
    }
    sim_.schedule_after_on(delay, to.value(), std::move(deliver));
}

void Network::send_reliable(NodeId from, NodeId to, std::size_t size_bytes,
                            EventFn deliver) {
    ++messages_;
    bytes_ += size_bytes;
    sim_.schedule_after_on(sample_delay(from, to, size_bytes), to.value(),
                           std::move(deliver));
}

}  // namespace fl::sim
