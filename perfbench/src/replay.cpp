#include "replay.h"

#include <chrono>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "ledger/world_state.h"
#include "orderer/consolidator.h"
#include "peer/endorser.h"
#include "peer/priority_calculator.h"
#include "peer/validator.h"
#include "policy/consolidation_policy.h"
#include "wfq/wfq.h"

namespace perfbench {

namespace {

using namespace fl;
using Clock = std::chrono::steady_clock;

/// Runs `fn` once, adding its host time to `t`; returns fn's result.
template <typename Fn>
auto timed(Timed& t, Fn&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        t.seconds += std::chrono::duration<double>(Clock::now() - start).count();
        ++t.calls;
    } else {
        auto out = fn();
        t.seconds += std::chrono::duration<double>(Clock::now() - start).count();
        ++t.calls;
        return out;
    }
}

/// The world state every peer starts from (what seed_state wrote).
std::unique_ptr<ledger::WorldState> seeded_state(const RunSpec& spec) {
    auto state =
        std::make_unique<ledger::WorldState>(spec.config.peer_params.state_shards);
    if (spec.accounts > 0) {
        const std::string balance = std::to_string(1'000);
        for (std::uint64_t i = 0; i < spec.accounts; ++i) {
            state->apply(ledger::KvWrite{"acct/" + harness::scale_account_name(i),
                                         balance, false},
                         ledger::Version{0, 0});
        }
    }
    return state;
}

void check(ReplayResult& out, bool ok, const std::string& name) {
    if (!ok) {
        for (const std::string& f : out.failures) {
            if (f == name) return;
        }
        out.failures.push_back(name);
    }
}

}  // namespace

double ReplayResult::role_seconds(Role role) const {
    switch (role) {
        case Role::kPeer:
            return validate_block.seconds + apply_block.seconds + endorse.seconds +
                   data_hash_peer.seconds;
        case Role::kClient: return verify_endorsement.seconds;
        case Role::kOrderer:
            return consolidate.seconds + data_hash_orderer.seconds + wfq.seconds;
        default: return 0.0;
    }
}

ReplayResult replay(core::FabricNetwork& net, const RunSpec& spec) {
    ReplayResult out;
    const core::NetworkConfig& cfg = net.config();
    const policy::ChannelConfig& channel = cfg.channel;
    const crypto::KeyStore& keys = net.keys();
    const ledger::BlockStore& chain = net.peers().front()->chain();
    const std::size_t n_peers = net.peers().size();
    const std::size_t n_osns = net.osns().size();
    check(out, chain.height() > 0, "replay: empty chain");

    std::unique_ptr<policy::ConsolidationPolicy> consolidation;
    if (channel.priority_enabled) {
        consolidation = policy::make_consolidation_policy(channel.consolidation_spec);
    }
    peer::ValidatorConfig vcfg;
    vcfg.prioritized = channel.priority_enabled;
    vcfg.verify_consolidation = channel.priority_enabled;

    std::unique_ptr<peer::PriorityCalculator> calculator =
        cfg.calculator_factory ? cfg.calculator_factory()
                               : std::make_unique<peer::StaticChaincodeCalculator>();
    peer::CalculatorContext ctx;
    ctx.registry = &net.registry();
    ctx.priority_levels = channel.effective_levels();

    // Peers: each replica replays one peer's commit path from the seeded
    // state; replica 0 also re-endorses every endorsement against the state
    // its block was validated on.
    for (std::size_t replica = 0; replica < n_peers; ++replica) {
        std::unique_ptr<ledger::WorldState> state = seeded_state(spec);
        std::unordered_set<std::uint64_t> seen;
        for (BlockNumber b = 0; b < chain.height(); ++b) {
            const ledger::Block& block = chain.at(b);
            if (replica == 0) {
                for (const ledger::Envelope& tx : block.transactions) {
                    for (const ledger::Endorsement& e : tx.endorsements) {
                        const crypto::Identity identity{e.endorser_identity, e.org};
                        const peer::EndorsementResult r = timed(out.endorse, [&] {
                            return peer::endorse(tx.proposal, *state, net.registry(),
                                                 *calculator, ctx, keys, identity);
                        });
                        check(out, !r.ok || r.endorsement.priority == e.priority,
                              "replay: endorse priority vote");
                    }
                }
            }
            const peer::ValidationOutcome outcome = timed(out.validate_block, [&] {
                return peer::validate_block(block, *state, channel, consolidation.get(),
                                            keys, seen, vcfg);
            });
            check(out, outcome.codes == block.validation_codes,
                  "replay: validation codes");
            timed(out.apply_block, [&] { peer::apply_block(block, outcome, *state); });
            const crypto::Digest d =
                timed(out.data_hash_peer, [&] { return block.compute_data_hash(); });
            check(out, d == block.header.data_hash, "replay: block data hash");
        }
        check(out,
              state->fingerprint() == net.peers()[replica]->state().fingerprint(),
              "replay: world state fingerprint");
    }

    // Client and OSN entry points, plus the crypto primitives underneath.
    std::vector<Bytes> payloads;
    std::vector<const ledger::Endorsement*> endorsements;
    orderer::Consolidator consolidator(channel, keys, cfg.osn_params.verify_endorsements);
    std::vector<PriorityLevel> levels;
    for (BlockNumber b = 0; b < chain.height(); ++b) {
        const ledger::Block& block = chain.at(b);
        for (std::size_t o = 0; o < n_osns; ++o) {
            const crypto::Digest d =
                timed(out.data_hash_orderer, [&] { return block.compute_data_hash(); });
            check(out, d == block.header.data_hash, "replay: block data hash");
        }
        for (const ledger::Envelope& tx : block.transactions) {
            ++out.transactions;
            for (const ledger::Endorsement& e : tx.endorsements) {
                const bool ok = timed(out.verify_endorsement, [&] {
                    return peer::verify_endorsement(tx.proposal, tx.rwset, e, keys);
                });
                check(out, ok, "replay: client endorsement verdict");
                payloads.push_back(
                    ledger::Envelope::endorsement_payload(tx.proposal, tx.rwset, e.priority));
                endorsements.push_back(&e);
            }
            if (channel.priority_enabled) {
                const orderer::ConsolidationResult r =
                    timed(out.consolidate, [&] { return consolidator.consolidate(tx); });
                check(out, r.ok && r.priority == tx.consolidated_priority,
                      "replay: consolidated priority");
                levels.push_back(tx.consolidated_priority);
            }
            const std::uint64_t e_count = tx.endorsements.size();
            out.nominal_verifies +=
                e_count * ((cfg.client_params.verify_endorsements ? 1 : 0) + n_peers +
                           (cfg.osn_params.verify_endorsements ? 1 : 0));
        }
    }

    // KeyStore::sign / verify and sha256 over the same payloads, timed as
    // whole loops so the clock reads do not dominate microsecond calls.
    bool sign_ok = true;
    bool verify_ok = true;
    bool hash_ok = true;
    auto start = Clock::now();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const Bytes& p = payloads[i];
        sign_ok &= keys.sign(endorsements[i]->endorser_identity,
                             BytesView(p.data(), p.size())) == endorsements[i]->signature;
    }
    out.sign = {std::chrono::duration<double>(Clock::now() - start).count(),
                payloads.size()};
    start = Clock::now();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const Bytes& p = payloads[i];
        verify_ok &= keys.verify(endorsements[i]->signature, BytesView(p.data(), p.size()));
    }
    out.verify = {std::chrono::duration<double>(Clock::now() - start).count(),
                  payloads.size()};
    start = Clock::now();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const Bytes& p = payloads[i];
        hash_ok &= crypto::sha256(BytesView(p.data(), p.size())) ==
                   endorsements[i]->response_hash;
        out.sha256_bytes += p.size();
    }
    out.sha256 = {std::chrono::duration<double>(Clock::now() - start).count(),
                  payloads.size()};
    check(out, sign_ok, "replay: KeyStore::sign output");
    check(out, verify_ok, "replay: KeyStore::verify verdict");
    check(out, hash_ok, "replay: sha256 response hash");

    // WFQ over the run's level sequence (dequeue order of the chain): the
    // reference scheduler must hand out exactly the per-level totals the
    // OSNs ordered.
    if (channel.priority_enabled && !levels.empty()) {
        const std::vector<double> weights = channel.block_policy.fractions();
        std::vector<std::uint64_t> served(weights.size(), 0);
        bool positive = true;
        for (const double w : weights) positive &= w > 0.0;
        check(out, positive, "replay: wfq weights positive");
        if (positive) {
            const auto start_wfq = Clock::now();
            wfq::WfqScheduler<std::uint64_t> sched(weights);
            for (std::size_t i = 0; i < levels.size(); ++i) {
                sched.enqueue(levels[i], 1.0, i);
            }
            while (const auto item = sched.dequeue()) ++served[item->flow];
            out.wfq = {std::chrono::duration<double>(Clock::now() - start_wfq).count(),
                       levels.size()};
            const std::vector<std::uint64_t>& totals = net.osns().front()->level_totals();
            check(out,
                  std::vector<std::uint64_t>(totals.begin(), totals.end()) == served,
                  "replay: wfq per-level totals");
        }
    }
    return out;
}

}  // namespace perfbench
