// The benchmark's own arithmetic: tail percentiles with their sample
// counts, the failure ratio, and the attribution of a simulator scheduling
// domain to the role that owns it.  Header-only and free of simulator state
// so perfbench/tests can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "raft/raft.h"

namespace perfbench {

/// A percentile as reported: the value, the percentile actually used, the
/// sample count and how many samples lie strictly beyond it.
struct TailStat {
    double value = 0.0;
    double p = 0.0;
    std::size_t n = 0;
    std::size_t beyond = 0;
};

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// The `wanted` percentile if at least kMinBeyond samples lie beyond it,
/// otherwise the highest percentile that still has kMinBeyond beyond it
/// (rank n - kMinBeyond).  With kMinBeyond or fewer samples no percentile
/// qualifies and the median is reported instead.  Ranks are nearest-rank,
/// k = ceil(p * n / 100), which is exact for whole percentiles; the fallback
/// is chosen by rank, in integers, so rounding cannot leave fewer than
/// kMinBeyond beyond it.
inline TailStat tail_percentile(std::vector<double> samples, double wanted) {
    TailStat out;
    out.n = samples.size();
    if (samples.empty()) return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    std::size_t k = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(wanted * static_cast<double>(n) / 100.0)), 1, n);
    out.p = wanted;
    if (n - k < kMinBeyond) {
        k = n > kMinBeyond ? n - kMinBeyond : (n + 1) / 2;
        out.p = 100.0 * static_cast<double>(k) / static_cast<double>(n);
    }
    out.value = samples[k - 1];
    out.beyond = n - k;
    return out;
}

/// Share of submitted transactions that did not commit valid: validation
/// aborts (MVCC and every other invalid code) plus client-side failures.
inline double fail_ratio(std::uint64_t invalid, std::uint64_t client_failures,
                         std::uint64_t submitted) {
    if (submitted == 0) throw std::invalid_argument("fail_ratio: nothing submitted");
    return static_cast<double>(invalid + client_failures) /
           static_cast<double>(submitted);
}

/// Owner of a simulator event, from the scheduling domain it ran under.
enum class Role : std::uint8_t { kSim = 0, kPeer, kOrderer, kClient, kMq, kRaft };
inline constexpr std::size_t kRoleCount = 6;

inline std::string_view role_name(Role r) {
    switch (r) {
        case Role::kSim: return "sim";
        case Role::kPeer: return "peer";
        case Role::kOrderer: return "orderer";
        case Role::kClient: return "client";
        case Role::kMq: return "mq";
        case Role::kRaft: return "raft";
    }
    return "sim";
}

/// Maps a domain to its role using the node-id bases of core/config.h.
/// Raft node 0 shares the broker's id (raft::kRaftNodeBase == kBrokerNode),
/// so the ordering backend decides who owns it.  Domains outside every
/// range (bootstrap domain 0) belong to the simulator itself.
inline Role role_of_domain(std::uint64_t domain, bool raft_backend) {
    static_assert(fl::raft::kRaftNodeBase == fl::core::kBrokerNode);
    using namespace fl::core;
    if (domain >= kPeerNodeBase && domain < kOsnNodeBase) return Role::kPeer;
    if (domain >= kOsnNodeBase && domain < kClientNodeBase) return Role::kOrderer;
    if (domain >= kClientNodeBase && domain < kBrokerNode) return Role::kClient;
    if (domain == kBrokerNode) return raft_backend ? Role::kRaft : Role::kMq;
    if (domain > kBrokerNode && raft_backend) return Role::kRaft;
    return Role::kSim;
}

}  // namespace perfbench
