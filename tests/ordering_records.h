// Record helpers shared by the ordering-service tests (broker, Raft and
// the topic-log contract they both follow).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ledger/transaction.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"

namespace fl::ordering_test {

/// A transaction record whose envelope carries only `id`.
inline orderer::OrderedRecord rec(std::uint64_t id) {
    auto env = std::make_shared<ledger::Envelope>();
    env->proposal.tx_id = TxId{id};
    return orderer::OrderedRecord::transaction(std::move(env));
}

inline std::vector<std::uint64_t> tx_ids(const std::vector<orderer::OrderedRecord>& log) {
    std::vector<std::uint64_t> ids;
    for (const orderer::OrderedRecord& r : log) ids.push_back(r.envelope->tx_id().value());
    return ids;
}

/// Pops every ready record and returns their tx ids in consumption order.
inline std::vector<std::uint64_t> drain_ids(orderer::Subscription& sub) {
    std::vector<std::uint64_t> ids;
    while (sub.has_ready()) ids.push_back(sub.pop().envelope->tx_id().value());
    return ids;
}

}  // namespace fl::ordering_test
