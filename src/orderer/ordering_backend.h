// OrderingBackend — the pluggable ordering substrate behind the OSNs.
//
// The OSNs (and everything above them) need four things from the ordering
// service:
//
//   1. totally-ordered, offset-addressed append logs (one per priority
//      level), fed by `produce` after producer->service network delay;
//   2. offset-ordered subscriptions that replay from any committed offset —
//      the hook OSN crash/restart recovery is built on;
//   3. random-access reads over the committed prefix (consistency checks);
//   4. an unavailability surface for fault injection (`set_down`, deferred
//      appends) plus the type-erased append hook the observability and
//      audit layers share.
//
// Items 1–3 and the hook are one committed topic log, written once here:
// topics, subscribers, replay, reads and fanout are non-virtual.  The two
// implementations differ only in how a record reaches that log — the
// Kafka-style `fl::mq::Broker` appends on arrival, the deterministic
// simulated-time Raft cluster (`fl::raft::RaftOrderingBackend`, DESIGN.md
// §15) appends once an entry commits — and in their outage models.  The
// contract every implementation honors:
//
//   - appends are atomic: offset assignment, the append hook and subscriber
//     fanout happen at one simulated instant, in arrival order
//     (`append_committed`);
//   - a record is fanned out to each live subscriber exactly once, over the
//     reliable transport, and `read`/`log_of` only ever expose records that
//     are durable (mq: appended; raft: replicated to a majority);
//   - all randomness comes from streams owned by the implementation, so a
//     fault-free run is byte-identical across backends and `--threads`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "orderer/record.h"
#include "sim/network.h"

namespace fl::orderer {

/// Network address of the ordering service: the mq broker, and Raft node 0
/// (the cluster contact), so fault-free traffic crosses the same links
/// under either backend.
inline constexpr std::uint64_t kOrderingServiceNode = 9000;

/// Wire framing added to every produced record's payload size; both
/// backends charge it on the data-path links and report it to the hook.
inline constexpr std::size_t kRecordOverheadBytes = 64;

/// Backend selection for NetworkConfig (DESIGN.md §15).
enum class OrderingBackendKind : std::uint8_t {
    kMq = 0,  ///< single Kafka-style broker (the original substrate)
    kRaft,    ///< deterministic simulated-time Raft cluster
};

[[nodiscard]] inline const char* to_string(OrderingBackendKind kind) {
    switch (kind) {
    case OrderingBackendKind::kMq: return "mq";
    case OrderingBackendKind::kRaft: return "raft";
    }
    return "unknown";
}

using Offset = std::uint64_t;

/// In-order consumer view of one topic.  Records become visible after
/// service->consumer network delay, always in offset order: pushes may be
/// reordered by jitter, so arrivals are buffered until the gap closes.
class Subscription {
public:
    /// True when at least one record is ready to consume.
    [[nodiscard]] bool has_ready() const { return !ready_.empty(); }

    /// Next ready record without consuming it.
    [[nodiscard]] const OrderedRecord& peek() const {
        if (ready_.empty()) throw std::logic_error("Subscription::peek: empty");
        return ready_.front().second;
    }

    [[nodiscard]] Offset peek_offset() const {
        if (ready_.empty()) throw std::logic_error("Subscription::peek_offset: empty");
        return ready_.front().first;
    }

    /// Consumes and returns the next record.
    OrderedRecord pop() {
        if (ready_.empty()) throw std::logic_error("Subscription::pop: empty");
        OrderedRecord value = std::move(ready_.front().second);
        ready_.pop_front();
        ++popped_;
        return value;
    }

    /// Callback fired every time new records become ready (possibly several
    /// per call).  Used by the block generator to resume Algorithm 1.
    void set_on_ready(std::function<void()> cb) { on_ready_ = std::move(cb); }

    [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
    [[nodiscard]] Offset next_expected_offset() const { return next_offset_; }
    /// Records this consumer has pop()ed so far.  Together with the
    /// backend's topic_size this yields the consumer's queue depth (lag),
    /// the per-priority backlog series the observability layer samples.
    [[nodiscard]] std::uint64_t consumed_count() const { return popped_; }

private:
    friend class OrderingBackend;

    void on_push(Offset offset, OrderedRecord value) {
        pending_.emplace(offset, std::move(value));
        bool advanced = false;
        for (auto it = pending_.find(next_offset_); it != pending_.end();
             it = pending_.find(next_offset_)) {
            ready_.emplace_back(it->first, std::move(it->second));
            pending_.erase(it);
            ++next_offset_;
            advanced = true;
        }
        if (advanced && on_ready_) on_ready_();
    }

    std::map<Offset, OrderedRecord> pending_;           // out-of-order arrivals
    std::deque<std::pair<Offset, OrderedRecord>> ready_;  // in-order, unconsumed
    Offset next_offset_ = 0;
    std::uint64_t popped_ = 0;
    std::function<void()> on_ready_;
};

class OrderingBackend {
public:
    /// Fired synchronously on every durable append: (topic, offset, record,
    /// wire size).  Type-erased so the log stays agnostic of record
    /// semantics; null by default and guarded by a single branch, so
    /// untraced runs pay nothing.
    using AppendHook = std::function<void(const std::string&, Offset,
                                          const OrderedRecord&, std::size_t)>;

    virtual ~OrderingBackend() = default;
    OrderingBackend(const OrderingBackend&) = delete;
    OrderingBackend& operator=(const OrderingBackend&) = delete;

    // -- the committed topic log (shared by every backend) --------------------
    /// Creates a topic; idempotent.
    void create_topic(const std::string& name);
    [[nodiscard]] bool has_topic(const std::string& name) const {
        return topic_ids_.contains(name);
    }

    /// Subscribes `consumer_node` from `from_offset` (default: the start of
    /// the topic); the committed suffix is replayed with network delay.
    /// Throws std::invalid_argument for an unknown topic and
    /// std::out_of_range when `from_offset` lies past the end of the topic —
    /// requesting a position the log has never reached is a caller bug.
    std::shared_ptr<Subscription> subscribe(const std::string& topic,
                                            NodeId consumer_node,
                                            Offset from_offset = 0);

    /// Random-access read of one durable record.  Throws
    /// std::invalid_argument (unknown topic) / std::out_of_range (past end).
    [[nodiscard]] const OrderedRecord& read(const std::string& topic,
                                            Offset offset) const;
    /// Durable records in `topic`; 0 for an unknown topic.
    [[nodiscard]] std::size_t topic_size(const std::string& topic) const;
    /// The whole durable log (consistency checks); throws
    /// std::invalid_argument for an unknown topic.
    [[nodiscard]] const std::vector<OrderedRecord>& log_of(
        const std::string& topic) const;

    void set_on_append(AppendHook hook) { on_append_ = std::move(hook); }

    // -- how records reach the log --------------------------------------------
    /// Appends `value` after producer->service network delay and fans it out
    /// to all subscribers once durable.  `size_bytes` is the payload wire
    /// size.  Throws std::invalid_argument for an unknown topic.
    virtual void produce(const std::string& topic, NodeId producer,
                         std::size_t size_bytes, OrderedRecord value) = 0;

    /// Appends without the producer-side network hop (unit tests).  Returns
    /// the offset the record will occupy once durable, accounting for
    /// appends still in flight (deferred or not yet committed).
    virtual Offset produce_local(const std::string& topic, std::size_t size_bytes,
                                 OrderedRecord value) = 0;

    /// Network address producers talk to (the broker node, or the Raft
    /// cluster's contact node).
    [[nodiscard]] virtual NodeId node() const = 0;

    // -- fault surface --------------------------------------------------------
    /// Opens/closes a whole-service unavailability window.  mq: broker
    /// outage with arrival-order deferred flush.  Raft: every node crashes
    /// (durable state survives) and recovers, with buffered submissions
    /// re-ordered once a leader re-emerges.
    virtual void set_down(bool down) = 0;
    [[nodiscard]] virtual bool is_down() const = 0;
    [[nodiscard]] virtual std::uint64_t outages() const = 0;
    /// Appends that arrived while the service could not commit them
    /// (lifetime total).
    [[nodiscard]] virtual std::uint64_t deferred_appends_total() const = 0;

protected:
    /// `net` carries produce requests and subscriber fanout.
    explicit OrderingBackend(sim::Network& net) : net_(net) {}

    /// Index of topic `name`; throws std::invalid_argument when unknown.
    /// Indices are stable, so in-flight work addresses topics by index.
    [[nodiscard]] std::uint32_t topic_id(const std::string& name) const;
    /// Durable records in topic `topic`.
    [[nodiscard]] std::size_t log_size(std::uint32_t topic) const {
        return topics_[topic].records.size();
    }

    /// Makes `record` durable at the end of topic `topic`: fires the append
    /// hook, prunes expired subscribers, then pushes to each live one.
    void append_committed(std::uint32_t topic, std::size_t wire, OrderedRecord record);

    /// Node subscriber pushes leave from (default: node()).
    [[nodiscard]] virtual NodeId fanout_node() const { return node(); }

    sim::Network& net_;

private:
    struct Subscriber {
        NodeId node;
        /// Weak so a dropped consumer (e.g. a crashed OSN's generator) stops
        /// receiving pushes; expired entries are pruned on the next append.
        std::weak_ptr<Subscription> sub;
    };

    struct TopicLog {
        std::string name;  ///< stored so the append hook never formats
        std::vector<OrderedRecord> records;
        std::vector<std::size_t> wire_sizes;
        std::vector<Subscriber> subscribers;
    };

    [[nodiscard]] const TopicLog& topic_ref(const std::string& name) const {
        return topics_[topic_id(name)];
    }
    void push_to(const TopicLog& log, const Subscriber& s, Offset off);

    std::vector<TopicLog> topics_;
    std::unordered_map<std::string, std::uint32_t> topic_ids_;
    AppendHook on_append_;
};

}  // namespace fl::orderer
