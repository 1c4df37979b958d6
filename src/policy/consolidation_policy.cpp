#include "policy/consolidation_policy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/parse.h"

namespace fl::policy {

namespace {

PriorityLevel clamp_level(std::uint64_t v, std::uint32_t levels) {
    return static_cast<PriorityLevel>(std::min<std::uint64_t>(v, levels - 1));
}

}  // namespace

KOfNMatchPolicy::KOfNMatchPolicy(std::size_t k) : k_(k) {
    if (k == 0) throw std::invalid_argument("KOfNMatchPolicy: k must be >= 1");
}

std::optional<PriorityLevel> KOfNMatchPolicy::consolidate(
    std::span<const PriorityLevel> votes, std::uint32_t levels) const {
    if (votes.empty()) return std::nullopt;
    std::map<PriorityLevel, std::size_t> counts;  // ordered: smaller level first
    for (PriorityLevel v : votes) {
        ++counts[v];
    }
    std::optional<PriorityLevel> winner;
    std::size_t best_count = 0;
    for (const auto& [level, count] : counts) {
        // Strict > keeps the first (highest-priority) level on ties.
        if (count >= k_ && count > best_count) {
            winner = level;
            best_count = count;
        }
    }
    if (!winner) return std::nullopt;
    return clamp_level(*winner, levels);
}

std::string KOfNMatchPolicy::name() const {
    return "kofn:" + std::to_string(k_);
}

std::optional<PriorityLevel> AveragePolicy::consolidate(
    std::span<const PriorityLevel> votes, std::uint32_t levels) const {
    if (votes.empty()) return std::nullopt;
    double sum = 0.0;
    for (PriorityLevel v : votes) sum += v;
    const double avg = sum / static_cast<double>(votes.size());
    return clamp_level(static_cast<std::uint64_t>(std::llround(avg)), levels);
}

std::optional<PriorityLevel> MedianPolicy::consolidate(
    std::span<const PriorityLevel> votes, std::uint32_t levels) const {
    if (votes.empty()) return std::nullopt;
    std::vector<PriorityLevel> sorted(votes.begin(), votes.end());
    std::sort(sorted.begin(), sorted.end());
    return clamp_level(sorted[(sorted.size() - 1) / 2], levels);
}

std::optional<PriorityLevel> BestPolicy::consolidate(
    std::span<const PriorityLevel> votes, std::uint32_t levels) const {
    if (votes.empty()) return std::nullopt;
    return clamp_level(*std::min_element(votes.begin(), votes.end()), levels);
}

std::optional<PriorityLevel> WorstPolicy::consolidate(
    std::span<const PriorityLevel> votes, std::uint32_t levels) const {
    if (votes.empty()) return std::nullopt;
    return clamp_level(*std::max_element(votes.begin(), votes.end()), levels);
}

std::unique_ptr<ConsolidationPolicy> make_consolidation_policy(const std::string& spec) {
    if (spec.rfind("kofn:", 0) == 0) {
        const std::optional<std::size_t> k =
            parse_unsigned<std::size_t>(std::string_view(spec).substr(5));
        if (!k) {
            throw std::invalid_argument("make_consolidation_policy: k in '" + spec +
                                        "' is not a base-10 integer");
        }
        return std::make_unique<KOfNMatchPolicy>(*k);
    }
    if (spec == "average") return std::make_unique<AveragePolicy>();
    if (spec == "median") return std::make_unique<MedianPolicy>();
    if (spec == "best") return std::make_unique<BestPolicy>();
    if (spec == "worst") return std::make_unique<WorstPolicy>();
    throw std::invalid_argument("make_consolidation_policy: unknown spec " + spec);
}

}  // namespace fl::policy
