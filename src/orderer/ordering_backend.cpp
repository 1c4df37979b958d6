#include "orderer/ordering_backend.h"

#include <string>

#include "common/log.h"

namespace fl::orderer {

void OrderingBackend::create_topic(const std::string& name) {
    const auto [it, inserted] =
        topic_ids_.try_emplace(name, static_cast<std::uint32_t>(topics_.size()));
    if (inserted) topics_.push_back(TopicLog{name, {}, {}, {}});
}

std::uint32_t OrderingBackend::topic_id(const std::string& name) const {
    const auto it = topic_ids_.find(name);
    if (it == topic_ids_.end()) {
        throw std::invalid_argument("OrderingBackend: unknown topic " + name);
    }
    return it->second;
}

std::shared_ptr<Subscription> OrderingBackend::subscribe(const std::string& topic,
                                                         NodeId consumer_node,
                                                         Offset from_offset) {
    TopicLog& log = topics_[topic_id(topic)];
    if (from_offset > log.records.size()) {
        throw std::out_of_range("OrderingBackend::subscribe: offset " +
                                std::to_string(from_offset) + " past end of " +
                                topic + " (size " +
                                std::to_string(log.records.size()) + ")");
    }
    auto sub = std::make_shared<Subscription>();
    sub->next_offset_ = from_offset;
    log.subscribers.push_back(Subscriber{consumer_node, sub});
    for (Offset off = from_offset; off < log.records.size(); ++off) {
        push_to(log, log.subscribers.back(), off);
    }
    return sub;
}

const OrderedRecord& OrderingBackend::read(const std::string& topic,
                                           Offset offset) const {
    const TopicLog& log = topic_ref(topic);
    if (offset >= log.records.size()) {
        throw std::out_of_range("OrderingBackend::read: offset " +
                                std::to_string(offset) + " past end of " + topic +
                                " (size " + std::to_string(log.records.size()) +
                                ")");
    }
    return log.records[offset];
}

std::size_t OrderingBackend::topic_size(const std::string& topic) const {
    const auto it = topic_ids_.find(topic);
    return it == topic_ids_.end() ? 0 : log_size(it->second);
}

const std::vector<OrderedRecord>& OrderingBackend::log_of(
    const std::string& topic) const {
    return topic_ref(topic).records;
}

void OrderingBackend::append_committed(std::uint32_t topic, std::size_t wire,
                                       OrderedRecord record) {
    TopicLog& log = topics_[topic];
    const auto off = static_cast<Offset>(log.records.size());
    log.records.push_back(std::move(record));
    log.wire_sizes.push_back(wire);
    FL_TRACE("ordering: " << log.name << " append @" << off << " (" << wire
                          << " B, " << log.subscribers.size() << " subscribers)");
    if (on_append_) on_append_(log.name, off, log.records.back(), wire);
    std::erase_if(log.subscribers,
                  [](const Subscriber& s) { return s.sub.expired(); });
    for (const Subscriber& s : log.subscribers) {
        push_to(log, s, off);
    }
}

void OrderingBackend::push_to(const TopicLog& log, const Subscriber& s, Offset off) {
    std::weak_ptr<Subscription> weak = s.sub;
    net_.send_reliable(fanout_node(), s.node, log.wire_sizes[off],
                       [weak, off, value = log.records[off]] {
                           if (auto sub = weak.lock()) sub->on_push(off, value);
                       });
}

}  // namespace fl::orderer
