#include "harness/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fl::harness {

void Workload::distribute_total(std::uint64_t total) {
    double tps_sum = 0.0;
    for (const LoadSpec& load : loads) {
        tps_sum += load.tps;
    }
    if (tps_sum <= 0.0) {
        throw std::invalid_argument("Workload::distribute_total: zero aggregate rate");
    }
    std::uint64_t assigned = 0;
    for (LoadSpec& load : loads) {
        load.total_txs = static_cast<std::uint64_t>(
            std::floor(static_cast<double>(total) * load.tps / tps_sum));
        assigned += load.total_txs;
    }
    // Leftover from flooring goes to the first loads.
    for (std::size_t i = 0; assigned < total; i = (i + 1) % loads.size()) {
        ++loads[i].total_txs;
        ++assigned;
    }
}

WorkloadDriver::WorkloadDriver(core::FabricNetwork& net, Workload workload, Rng rng)
    : net_(net), workload_(std::move(workload)) {
    if (workload_.loads.empty()) {
        throw std::invalid_argument("WorkloadDriver: empty workload");
    }
    for (std::size_t i = 0; i < workload_.loads.size(); ++i) {
        const LoadSpec& load = workload_.loads[i];
        if (!load.generate) {
            throw std::invalid_argument("WorkloadDriver: load without generator");
        }
        if (load.client_index >= net_.clients().size()) {
            throw std::invalid_argument("WorkloadDriver: bad client index");
        }
        if (load.tps <= 0.0) {
            throw std::invalid_argument("WorkloadDriver: non-positive rate");
        }
        load_rngs_.push_back(rng.split("load" + std::to_string(i)));
        remaining_.push_back(load.total_txs);
        submitted_.push_back(0);
    }
}

void WorkloadDriver::start() {
    for (std::size_t i = 0; i < workload_.loads.size(); ++i) {
        if (remaining_[i] > 0) {
            schedule_next(i);
        }
    }
}

std::uint64_t WorkloadDriver::submitted() const {
    std::uint64_t total = 0;
    for (const std::uint64_t s : submitted_) total += s;
    return total;
}

void WorkloadDriver::schedule_next(std::size_t load_index) {
    const LoadSpec& load = workload_.loads[load_index];
    const double mean_gap = 1.0 / load.tps;
    const double gap_s = workload_.poisson
                             ? load_rngs_[load_index].exponential(mean_gap)
                             : mean_gap;
    // Arrivals run under the target client's domain, which keys them.
    const client::Client& client = *net_.clients()[load.client_index];
    sim::Simulator& sim = net_.simulator();
    sim::DomainScope scope(sim, client.node().value());
    sim.schedule_after(Duration::from_seconds(gap_s), [this, load_index] {
        const LoadSpec& spec = workload_.loads[load_index];
        spec.generate(*net_.clients()[spec.client_index], load_rngs_[load_index]);
        ++submitted_[load_index];
        if (--remaining_[load_index] > 0) {
            schedule_next(load_index);
        }
    });
}

TxGenerator class_tx_generator(PriorityLevel level) {
    auto seq = std::make_shared<std::uint64_t>(0);
    switch (level) {
    case 0:
        return [seq](client::Client& c, Rng&) {
            const std::string key = "hk" + std::to_string(c.id().value()) + "-" +
                                    std::to_string((*seq)++);
            c.submit("asset_transfer", "create", {key, "100"});
        };
    case 1:
        return [seq](client::Client& c, Rng&) {
            const std::string key = "mk" + std::to_string(c.id().value()) + "-" +
                                    std::to_string((*seq)++);
            c.submit("supply_chain", "create_shipment", {key, "factory", "store"});
        };
    default:
        return [seq](client::Client& c, Rng&) {
            const std::string key = "lk" + std::to_string(c.id().value()) + "-" +
                                    std::to_string((*seq)++);
            c.submit("record_keeper", "log", {key, "audit-payload"});
        };
    }
}

TxGenerator priority_class_mix(std::vector<double> weights) {
    if (weights.empty()) {
        throw std::invalid_argument("priority_class_mix: no weights");
    }
    double total = 0.0;
    for (const double w : weights) {
        if (w < 0.0) throw std::invalid_argument("priority_class_mix: negative weight");
        total += w;
    }
    if (total <= 0.0) {
        throw std::invalid_argument("priority_class_mix: zero total weight");
    }
    std::vector<TxGenerator> generators;
    generators.reserve(weights.size());
    for (std::size_t level = 0; level < weights.size(); ++level) {
        generators.push_back(class_tx_generator(static_cast<PriorityLevel>(level)));
    }
    return [weights = std::move(weights), total,
            generators = std::move(generators)](client::Client& c, Rng& rng) {
        double pick = rng.uniform(0.0, total);
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (pick < weights[i] || i + 1 == weights.size()) {
                generators[i](c, rng);
                return;
            }
            pick -= weights[i];
        }
    };
}

TxGenerator single_chaincode(std::string chaincode) {
    auto seq = std::make_shared<std::uint64_t>(0);
    if (chaincode == "asset_transfer") {
        return [seq](client::Client& c, Rng&) {
            c.submit("asset_transfer", "create",
                     {"a" + std::to_string(c.id().value()) + "-" +
                          std::to_string((*seq)++),
                      "100"});
        };
    }
    if (chaincode == "supply_chain") {
        return [seq](client::Client& c, Rng&) {
            c.submit("supply_chain", "create_shipment",
                     {"s" + std::to_string(c.id().value()) + "-" +
                          std::to_string((*seq)++),
                      "factory", "store"});
        };
    }
    if (chaincode == "record_keeper") {
        return [seq](client::Client& c, Rng&) {
            c.submit("record_keeper", "log",
                     {"r" + std::to_string(c.id().value()) + "-" +
                          std::to_string((*seq)++),
                      "bulk-payload"});
        };
    }
    if (chaincode == "analytics") {
        return [seq](client::Client& c, Rng&) {
            c.submit("analytics", "ingest",
                     {"series" + std::to_string(c.id().value()),
                      "p" + std::to_string((*seq)++), "1.0"});
        };
    }
    throw std::invalid_argument("single_chaincode: unknown chaincode " + chaincode);
}

namespace {
std::string hot_account_name(std::uint32_t i) {
    return "hot" + std::to_string(i);
}
}  // namespace

TxGenerator contended_transfers(std::uint32_t hot_accounts) {
    if (hot_accounts < 2) {
        throw std::invalid_argument("contended_transfers: need >= 2 accounts");
    }
    return [hot_accounts](client::Client& c, Rng& rng) {
        const std::uint32_t from =
            static_cast<std::uint32_t>(rng.next_below(hot_accounts));
        std::uint32_t to = static_cast<std::uint32_t>(rng.next_below(hot_accounts - 1));
        if (to >= from) ++to;
        c.submit("asset_transfer", "transfer",
                 {hot_account_name(from), hot_account_name(to), "1"});
    };
}

void seed_hot_accounts(core::FabricNetwork& net, std::uint32_t hot_accounts,
                       long long initial_balance) {
    for (std::uint32_t i = 0; i < hot_accounts; ++i) {
        net.seed_state("acct/" + hot_account_name(i), std::to_string(initial_balance));
    }
}

// -- Zipfian scale workload -------------------------------------------------

namespace {

/// Generalized harmonic number H_{n,theta} = sum_{i=1..n} 1/i^theta.
double zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    if (n < 1) throw std::invalid_argument("ZipfSampler: need n >= 1");
    if (theta < 0.0 || theta >= 1.0) {
        throw std::invalid_argument("ZipfSampler: need 0 <= theta < 1");
    }
    zetan_ = zeta(n_, theta_);
    zeta2_ = zeta(std::min<std::uint64_t>(n_, 2), theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
}

std::uint64_t ZipfSampler::next_rank(Rng& rng) {
    // Gray et al.'s closed-form inverse-CDF approximation (as in YCSB):
    // exact for the two hottest ranks, asymptotic for the tail.
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (n_ >= 2 && uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
}

std::uint64_t ZipfSampler::scramble(std::uint64_t rank) const {
    // FNV-1a over the rank's 8 bytes — stable across platforms.  It decides
    // which accounts are hot, so changing it changes every drawn key.
    std::uint64_t h = 14695981039346656037ull;
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (rank >> (byte * 8)) & 0xFFu;
        h *= 1099511628211ull;
    }
    return h % n_;
}

std::uint64_t ZipfSampler::next(Rng& rng) { return scramble(next_rank(rng)); }

std::string scale_account_name(std::uint64_t index) {
    return "u" + std::to_string(index);
}

TxGenerator zipfian_transfers(std::uint64_t accounts, double theta,
                              double mint_fraction) {
    if (accounts < 2) {
        throw std::invalid_argument("zipfian_transfers: need >= 2 accounts");
    }
    if (mint_fraction < 0.0 || mint_fraction > 1.0) {
        throw std::invalid_argument("zipfian_transfers: mint_fraction in [0,1]");
    }
    // One sampler shared by every draw from this generator: the zeta
    // normalization is O(accounts) to build, so build it once.
    auto sampler = std::make_shared<ZipfSampler>(accounts, theta);
    return [sampler, mint_fraction](client::Client& c, Rng& rng) {
        const std::uint64_t a = sampler->next(rng);
        if (mint_fraction > 0.0 && rng.chance(mint_fraction)) {
            c.submit("asset_transfer", "mint", {scale_account_name(a), "5"});
            return;
        }
        std::uint64_t b = sampler->next(rng);
        if (b == a) b = (b + 1) % sampler->size();  // distinct endpoints
        c.submit("asset_transfer", "transfer",
                 {scale_account_name(a), scale_account_name(b), "1"});
    };
}

void seed_scale_accounts(core::FabricNetwork& net, std::uint64_t accounts,
                         long long initial_balance) {
    const std::string balance = std::to_string(initial_balance);
    for (std::uint64_t i = 0; i < accounts; ++i) {
        net.seed_state("acct/" + scale_account_name(i), balance);
    }
}

}  // namespace fl::harness
