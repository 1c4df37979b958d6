// Workload generation — the Hyperledger Caliper stand-in.
//
// Open-loop load: each LoadSpec drives one client at a target rate
// (deterministic or Poisson inter-arrivals) with a pluggable transaction
// generator.  The stock generators mirror the paper's workloads:
//
//   * priority_class_mix — transactions spread over the three stock
//     chaincodes whose deploy-time static priorities are high/medium/low,
//     in a configurable arrival ratio (the paper's 1:2:1 default);
//   * single_chaincode   — all load on one contract (Figure 6 uses
//     record_keeper for every client so only *who floods* differs);
//   * contended_transfers — asset transfers over a small hot-account set,
//     used to exercise the prioritized validator's conflict resolution;
//   * zipfian_transfers  — asset transfers over a huge (millions-wide)
//     account space with Zipf-skewed popularity, the YCSB access pattern
//     the scale harness (bench/scale_state) drives against the world
//     state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fabric_network.h"

namespace fl::harness {

/// Produces one transaction submission on `client`.
using TxGenerator = std::function<void(client::Client&, Rng&)>;

struct LoadSpec {
    std::size_t client_index = 0;  ///< index into FabricNetwork::clients()
    double tps = 100.0;
    std::uint64_t total_txs = 0;   ///< how many this load submits
    TxGenerator generate;
};

struct Workload {
    std::vector<LoadSpec> loads;
    bool poisson = true;  ///< exponential vs deterministic inter-arrivals

    /// Splits `total` transactions over the loads proportionally to tps.
    void distribute_total(std::uint64_t total);
};

/// Schedules all loads onto the network.  Each load's arrival events run
/// under its client's scheduling domain, which fixes their tie order.
/// Keep alive until the simulation finishes.
class WorkloadDriver {
public:
    WorkloadDriver(core::FabricNetwork& net, Workload workload, Rng rng);

    /// Begins submission at simulation time now.
    void start();

    [[nodiscard]] std::uint64_t submitted() const;

private:
    void schedule_next(std::size_t load_index);

    core::FabricNetwork& net_;
    Workload workload_;
    std::vector<Rng> load_rngs_;
    std::vector<std::uint64_t> remaining_;
    /// Per-load so concurrent groups never share a counter.
    std::vector<std::uint64_t> submitted_;
};

// -- stock transaction generators -------------------------------------------

/// Unique-key transaction on the chaincode of priority class `level`
/// (0 -> asset_transfer, 1 -> supply_chain, 2 -> record_keeper).
[[nodiscard]] TxGenerator class_tx_generator(PriorityLevel level);

/// Mixes the class generators with the given arrival weights
/// (e.g. {1, 2, 1} for the paper's high:med:low = 1:2:1 ratio).
[[nodiscard]] TxGenerator priority_class_mix(std::vector<double> weights);

/// Every transaction hits `chaincode` with unique keys (non-conflicting).
[[nodiscard]] TxGenerator single_chaincode(std::string chaincode);

/// Asset transfers over `hot_accounts` pre-seeded accounts — conflict-prone.
/// Accounts must be seeded via seed_hot_accounts() before traffic.
[[nodiscard]] TxGenerator contended_transfers(std::uint32_t hot_accounts);

/// Seeds the hot accounts used by contended_transfers on every peer.
void seed_hot_accounts(core::FabricNetwork& net, std::uint32_t hot_accounts,
                       long long initial_balance = 1'000'000);

// -- Zipfian scale workload -------------------------------------------------

/// Zipf(theta)-distributed sampler over [0, n), YCSB's "ZipfianGenerator"
/// construction (Gray et al.'s rejection-free inverse-CDF approximation):
/// rank r is drawn with probability ∝ 1/(r+1)^theta, then scrambled through
/// a stable FNV-1a hash so the popular ranks land on unrelated, scattered
/// accounts rather than u0, u1, u2, ...  theta = 0 degenerates to the
/// uniform distribution; theta must be < 1 (the harmonic normalization
/// diverges at 1).  Deterministic: same (n, theta, rng state) ⇒ same draws.
class ZipfSampler {
public:
    ZipfSampler(std::uint64_t n, double theta);

    /// Scrambled index in [0, n).
    [[nodiscard]] std::uint64_t next(Rng& rng);

    /// Popularity rank in [0, n): 0 is the hottest, 1 the next, ...
    /// (pre-scramble; exposed for tests pinning the skew itself).
    [[nodiscard]] std::uint64_t next_rank(Rng& rng);

    [[nodiscard]] std::uint64_t size() const { return n_; }
    [[nodiscard]] double theta() const { return theta_; }

    /// The stable rank→index permutation-ish scramble (FNV-1a mod n; rank
    /// collisions are acceptable and inherent to YCSB's construction).
    [[nodiscard]] std::uint64_t scramble(std::uint64_t rank) const;

private:
    std::uint64_t n_;
    double theta_;
    double zetan_;   ///< generalized harmonic H_{n,theta}
    double zeta2_;   ///< H_{2,theta}
    double alpha_;
    double eta_;
};

/// Canonical account name for index i of the scale account space ("u<i>";
/// full state key is "acct/u<i>").
[[nodiscard]] std::string scale_account_name(std::uint64_t index);

/// Asset transfers over `accounts` pre-seeded accounts with Zipf(theta)
/// popularity.  A `mint_fraction` slice of traffic instead mints (creates or
/// tops up) the sampled account — single-key write traffic that exercises
/// the create-or-top-up path against the store.  Accounts must be
/// seeded via seed_scale_accounts() before traffic.
[[nodiscard]] TxGenerator zipfian_transfers(std::uint64_t accounts, double theta,
                                            double mint_fraction = 0.0);

/// Seeds the `accounts`-wide scale account space on every peer (version
/// {0,0} bootstrap writes, bypassing the pipeline — this is the "million
/// account" world-state population step, so it is deliberately not traffic).
void seed_scale_accounts(core::FabricNetwork& net, std::uint64_t accounts,
                         long long initial_balance = 1'000);

}  // namespace fl::harness
