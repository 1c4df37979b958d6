#include "mq/broker.h"

#include <utility>

namespace fl::mq {

void Broker::produce(const std::string& topic, NodeId producer, std::size_t size_bytes,
                     orderer::OrderedRecord value) {
    const std::uint32_t tid = topic_id(topic);
    const std::size_t wire = size_bytes + orderer::kRecordOverheadBytes;
    net_.send_reliable(producer, node(), wire,
                       [this, tid, wire, value = std::move(value)]() mutable {
                           arrive(tid, wire, std::move(value));
                       });
}

orderer::Offset Broker::produce_local(const std::string& topic, std::size_t size_bytes,
                                      orderer::OrderedRecord value) {
    const std::uint32_t tid = topic_id(topic);
    auto off = static_cast<orderer::Offset>(log_size(tid));
    // Deferred appends targeting this topic flush ahead of this one, so they
    // occupy the next offsets; without this, every deferred produce during
    // one outage would claim the same slot.
    for (const Deferred& d : deferred_) {
        if (d.topic == tid) ++off;
    }
    arrive(tid, size_bytes + orderer::kRecordOverheadBytes, std::move(value));
    return off;
}

void Broker::set_down(bool down) {
    if (down_ == down) return;
    down_ = down;
    if (down) {
        ++outages_;
        return;
    }
    std::vector<Deferred> flush;
    flush.swap(deferred_);
    for (Deferred& d : flush) {
        append_committed(d.topic, d.wire, std::move(d.value));
    }
}

void Broker::arrive(std::uint32_t topic, std::size_t wire,
                    orderer::OrderedRecord value) {
    if (down_) {
        deferred_.push_back(Deferred{topic, wire, std::move(value)});
        ++deferred_total_;
        return;
    }
    append_committed(topic, wire, std::move(value));
}

}  // namespace fl::mq
