// Microbenchmarks M5 — committer-side validation: MVCC checks, endorsement
// verification, standard vs prioritized conflict resolution.
#include <benchmark/benchmark.h>

#include "peer/validator.h"

namespace {

using namespace fl;

struct Setup {
    crypto::KeyStore keys;
    policy::ChannelConfig channel;
    std::unique_ptr<policy::ConsolidationPolicy> consolidation;
    ledger::WorldState state;

    Setup() {
        channel.priority_levels = 3;
        channel.consolidation_spec = "kofn:2";
        channel.endorsement_policy = policy::EndorsementPolicy::k_of_n_orgs(2, 4);
        consolidation = policy::make_consolidation_policy("kofn:2");
        for (std::uint64_t org = 0; org < 4; ++org) {
            keys.register_identity({"org" + std::to_string(org) + ".peer0",
                                    OrgId{org}});
        }
    }

    ledger::Envelope make_tx(std::uint64_t id, PriorityLevel priority,
                             const std::string& key) {
        ledger::Envelope env;
        env.proposal.tx_id = TxId{id};
        env.proposal.chaincode = "bench";
        env.rwset.writes.push_back(ledger::KvWrite{key, "v", false});
        env.consolidated_priority = priority;
        for (std::uint64_t org = 0; org < 4; ++org) {
            ledger::Endorsement e;
            e.endorser_identity = "org" + std::to_string(org) + ".peer0";
            e.org = OrgId{org};
            e.priority = priority;
            const Bytes payload = ledger::Envelope::endorsement_payload(
                env.proposal, env.rwset, priority);
            e.response_hash =
                crypto::sha256(BytesView(payload.data(), payload.size()));
            e.signature = keys.sign(e.endorser_identity,
                                    BytesView(payload.data(), payload.size()));
            env.endorsements.push_back(e);
        }
        return env;
    }

    ledger::Block block_of(std::size_t n, bool contended, std::uint64_t base) {
        std::vector<ledger::Envelope> txs;
        for (std::size_t i = 0; i < n; ++i) {
            const std::string key =
                contended ? "hot" + std::to_string(i % 8)
                          : "k" + std::to_string(base + i);
            txs.push_back(make_tx(base + i, static_cast<PriorityLevel>(i % 3), key));
        }
        return ledger::make_block(0, nullptr, std::move(txs));
    }
};

void BM_ValidateBlock(benchmark::State& state) {
    Setup setup;
    const bool prioritized = state.range(1) != 0;
    const bool contended = state.range(2) != 0;
    const auto n = static_cast<std::size_t>(state.range(0));
    const ledger::Block block = setup.block_of(n, contended, 1);
    peer::ValidatorConfig cfg;
    cfg.prioritized = prioritized;
    cfg.verify_consolidation = prioritized;
    for (auto _ : state) {
        std::unordered_set<std::uint64_t> seen;
        benchmark::DoNotOptimize(
            peer::validate_block(block, setup.state, setup.channel,
                                 setup.consolidation.get(), setup.keys, seen, cfg));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
    state.SetLabel(std::string(prioritized ? "prioritized" : "standard") +
                   (contended ? "/contended" : "/disjoint"));
}
BENCHMARK(BM_ValidateBlock)
    ->Args({100, 0, 0})
    ->Args({100, 1, 0})
    ->Args({100, 1, 1})
    ->Args({500, 0, 0})
    ->Args({500, 1, 0})
    ->Args({500, 1, 1});

void BM_MvccValidateReads(benchmark::State& state) {
    ledger::WorldState ws;
    ledger::ReadWriteSet rwset;
    for (int i = 0; i < state.range(0); ++i) {
        const std::string key = "k" + std::to_string(i);
        ws.apply(ledger::KvWrite{key, "v", false}, ledger::Version{1, 0});
        rwset.reads.push_back(ledger::KvRead{key, ledger::Version{1, 0}});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ws.validate_reads(rwset));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MvccValidateReads)->Arg(2)->Arg(16)->Arg(128);

}  // namespace
