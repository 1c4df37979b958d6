#include "policy/block_formation_policy.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/parse.h"

namespace fl::policy {

BlockFormationPolicy::BlockFormationPolicy(std::vector<std::uint32_t> weights)
    : weights_(std::move(weights)) {
    if (weights_.empty()) {
        throw std::invalid_argument("BlockFormationPolicy: no levels");
    }
    const std::uint64_t total =
        std::accumulate(weights_.begin(), weights_.end(), std::uint64_t{0});
    if (total == 0) {
        throw std::invalid_argument("BlockFormationPolicy: all weights zero");
    }
}

BlockFormationPolicy BlockFormationPolicy::parse(const std::string& spec) {
    std::vector<std::uint32_t> weights;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t colon = spec.find(':', pos);
        const std::string token =
            spec.substr(pos, colon == std::string::npos ? std::string::npos : colon - pos);
        if (token.empty()) {
            throw std::invalid_argument("BlockFormationPolicy::parse: empty component in '" +
                                        spec + "'");
        }
        const std::optional<std::uint32_t> weight = parse_unsigned<std::uint32_t>(token);
        if (!weight) {
            throw std::invalid_argument("BlockFormationPolicy::parse: component '" + token +
                                        "' in '" + spec +
                                        "' is not a base-10 integer in [0, 2^32)");
        }
        weights.push_back(*weight);
        if (colon == std::string::npos) break;
        pos = colon + 1;
    }
    return BlockFormationPolicy(std::move(weights));
}

std::vector<std::uint32_t> BlockFormationPolicy::quotas(std::uint32_t block_size) const {
    const std::uint64_t total =
        std::accumulate(weights_.begin(), weights_.end(), std::uint64_t{0});
    std::vector<std::uint32_t> out(weights_.size(), 0);

    // Largest-remainder apportionment over the non-zero weights.
    std::vector<std::pair<double, std::size_t>> remainders;  // (-remainder, level)
    std::uint32_t assigned = 0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        if (weights_[i] == 0) continue;
        const double exact = static_cast<double>(block_size) *
                             static_cast<double>(weights_[i]) / static_cast<double>(total);
        out[i] = static_cast<std::uint32_t>(exact);
        assigned += out[i];
        remainders.emplace_back(-(exact - static_cast<double>(out[i])), i);
    }
    // Ties in remainder go to the higher-priority (smaller index) level.
    std::sort(remainders.begin(), remainders.end());
    std::uint32_t leftover = block_size - assigned;
    for (std::size_t j = 0; leftover > 0; j = (j + 1) % remainders.size()) {
        ++out[remainders[j].second];
        --leftover;
    }
    return out;
}

std::vector<double> BlockFormationPolicy::fractions() const {
    const std::uint64_t total =
        std::accumulate(weights_.begin(), weights_.end(), std::uint64_t{0});
    std::vector<double> out;
    out.reserve(weights_.size());
    for (std::uint32_t w : weights_) {
        out.push_back(static_cast<double>(w) / static_cast<double>(total));
    }
    return out;
}

std::string BlockFormationPolicy::to_string() const {
    std::string s;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        if (i > 0) s += ":";
        s += std::to_string(weights_[i]);
    }
    return s;
}

}  // namespace fl::policy
