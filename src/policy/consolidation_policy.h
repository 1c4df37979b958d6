// Priority consolidation policies (paper §3.2).
//
// Endorsers may assign different priorities to the same transaction; the
// ordering service consolidates them into a single value under a policy
// fixed at chaincode deployment.  The paper names two families, both
// implemented here plus order-statistic variants:
//   * k-of-n agreement: at least k endorsers must assign the *same*
//     priority, otherwise the transaction is invalid;
//   * aggregation: average the values and round to the nearest level.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/types.h"

namespace fl::policy {

class ConsolidationPolicy {
public:
    virtual ~ConsolidationPolicy() = default;

    /// Consolidates endorser-assigned priorities into one value, or nullopt
    /// when the policy deems the transaction invalid (e.g. insufficient
    /// agreement).  `levels` is the number of configured priority levels;
    /// results are clamped to [0, levels).
    [[nodiscard]] virtual std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const = 0;

    [[nodiscard]] virtual std::string name() const = 0;
};

/// At least `k` endorsers must agree on the same priority value; the agreed
/// value wins (the most-agreed value if several reach k — ties resolve to
/// the higher priority, i.e. the numerically smaller level).
class KOfNMatchPolicy final : public ConsolidationPolicy {
public:
    explicit KOfNMatchPolicy(std::size_t k);

    [[nodiscard]] std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const override;
    [[nodiscard]] std::string name() const override;

private:
    std::size_t k_;
};

/// Mean of the votes rounded to the nearest integer level.
class AveragePolicy final : public ConsolidationPolicy {
public:
    [[nodiscard]] std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const override;
    [[nodiscard]] std::string name() const override { return "average"; }
};

/// Median vote (lower median on even counts).
class MedianPolicy final : public ConsolidationPolicy {
public:
    [[nodiscard]] std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const override;
    [[nodiscard]] std::string name() const override { return "median"; }
};

/// Most favourable vote wins (numerically smallest level).
class BestPolicy final : public ConsolidationPolicy {
public:
    [[nodiscard]] std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const override;
    [[nodiscard]] std::string name() const override { return "best"; }
};

/// Least favourable vote wins (numerically largest level) — conservative.
class WorstPolicy final : public ConsolidationPolicy {
public:
    [[nodiscard]] std::optional<PriorityLevel> consolidate(
        std::span<const PriorityLevel> votes, std::uint32_t levels) const override;
    [[nodiscard]] std::string name() const override { return "worst"; }
};

/// Factory from a spec string: "kofn:2", "average", "median", "best",
/// "worst".  Throws std::invalid_argument on unknown specs and on a k that
/// is not a plain base-10 integer (see common/parse.h).
[[nodiscard]] std::unique_ptr<ConsolidationPolicy> make_consolidation_policy(
    const std::string& spec);

}  // namespace fl::policy
