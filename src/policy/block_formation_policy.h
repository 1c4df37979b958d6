// Block formation policy (paper §3.3): the ratio TR in which transactions of
// each priority level are included in a block.  Part of the channel
// configuration.
//
// A weight of 0 marks a *best-effort* level: it receives no reserved quota
// and is only served from surplus transferred off levels that ran dry
// (paper's "<100:0:0>" example).  Non-zero weights are normalized so the
// reserved quotas sum exactly to the block size (the paper's assumption
// sum_i TR[i] = BS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace fl::policy {

class BlockFormationPolicy {
public:
    /// `weights[i]` is the relative share of priority level i (0 = highest).
    /// At least one weight must be non-zero.
    explicit BlockFormationPolicy(std::vector<std::uint32_t> weights);

    /// Parses "2:3:1" style specs: colon-separated base-10 weights, each
    /// digits only and below 2^32.  Throws std::invalid_argument otherwise.
    [[nodiscard]] static BlockFormationPolicy parse(const std::string& spec);

    [[nodiscard]] std::uint32_t levels() const {
        return static_cast<std::uint32_t>(weights_.size());
    }
    [[nodiscard]] const std::vector<std::uint32_t>& weights() const { return weights_; }

    /// Per-level transaction quotas summing exactly to `block_size`.
    /// Zero-weight (best-effort) levels receive quota 0.  Rounding remainders
    /// go to the highest-priority non-zero levels first.
    [[nodiscard]] std::vector<std::uint32_t> quotas(std::uint32_t block_size) const;

    /// Weight fractions (0 for best-effort levels).
    [[nodiscard]] std::vector<double> fractions() const;

    [[nodiscard]] std::string to_string() const;

private:
    std::vector<std::uint32_t> weights_;
};

}  // namespace fl::policy
