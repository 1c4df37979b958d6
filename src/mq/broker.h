// In-simulation message-queue broker — the Apache Kafka stand-in.
//
// Substitution note (DESIGN.md §2): Fabric's Kafka orderer relies on exactly
// three properties of Kafka topics, all provided here:
//   1. each topic is a totally-ordered, offset-addressed append log;
//   2. every consumer observes the same sequence (reading at its own pace);
//   3. multiple producers can interleave records, including control
//      messages (the time-to-cut markers), and the interleaving is the
//      same for everyone because it is fixed at append time.
//
// The topic log itself (topics, subscriptions with replay, reads, the append
// hook and subscriber fanout) is the ordering seam's shared one
// (orderer::OrderingBackend); the broker only decides when a record joins
// it.  It lives at one network node (orderer::kOrderingServiceNode);
// produce requests and consumer pushes pay network delay over the
// *reliable* transport (Kafka runs on TCP — a produced record is never lost
// or duplicated, only delayed).
//
// Fault injection: `set_down(true)` opens an unavailability window.  Appends
// that arrive while the broker is down are deferred in arrival order and
// flushed when the window closes — the log stays total-ordered and every
// consumer still observes the same sequence, records are just late (the
// Kafka-cluster-outage model: producers block/retry, nothing is lost).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"
#include "sim/network.h"

namespace fl::mq {

class Broker final : public orderer::OrderingBackend {
public:
    explicit Broker(sim::Network& net) : OrderingBackend(net) {}

    /// Appends `value` to `topic` after producer->broker network delay and
    /// pushes it to all subscribers.
    void produce(const std::string& topic, NodeId producer, std::size_t size_bytes,
                 orderer::OrderedRecord value) override;

    /// Appends without network delay.  During an unavailability window the
    /// append is deferred like any other; the returned offset is where the
    /// record will land once the broker is up.
    orderer::Offset produce_local(const std::string& topic, std::size_t size_bytes,
                                  orderer::OrderedRecord value) override;

    [[nodiscard]] NodeId node() const override {
        return NodeId{orderer::kOrderingServiceNode};
    }

    /// Opens (true) or closes (false) an unavailability window.  Closing
    /// flushes every deferred append in its original arrival order, so the
    /// post-outage log is deterministic.
    void set_down(bool down) override;
    [[nodiscard]] bool is_down() const override { return down_; }
    [[nodiscard]] std::uint64_t outages() const override { return outages_; }
    [[nodiscard]] std::uint64_t deferred_appends_total() const override {
        return deferred_total_;
    }

private:
    struct Deferred {
        std::uint32_t topic;
        std::size_t wire;
        orderer::OrderedRecord value;
    };

    /// Appends now, or defers the append while the broker is down.
    void arrive(std::uint32_t topic, std::size_t wire, orderer::OrderedRecord value);

    bool down_ = false;
    std::uint64_t outages_ = 0;
    std::uint64_t deferred_total_ = 0;
    std::vector<Deferred> deferred_;
};

}  // namespace fl::mq
