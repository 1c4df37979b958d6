// Microbenchmarks M1 — crypto substrate: SHA-256, HMAC, Merkle trees,
// simulated signatures and endorsement verification.  These set the
// constant factors behind every endorsement/validation in the simulation.
#include <benchmark/benchmark.h>

#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/signature.h"
#include "peer/endorser.h"

namespace {

using namespace fl;
using namespace fl::crypto;

void BM_Sha256(benchmark::State& state) {
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sha256(BytesView(data.data(), data.size())));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(512)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
    const Bytes key(32, 0x11);
    const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x22);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hmac_sha256(BytesView(key.data(), key.size()),
                                             BytesView(msg.data(), msg.size())));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(1024);

void BM_MerkleRoot(benchmark::State& state) {
    std::vector<Digest> leaves;
    for (int i = 0; i < state.range(0); ++i) {
        leaves.push_back(sha256("leaf" + std::to_string(i)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(merkle_root(leaves));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(100)->Arg(500)->Arg(2000);

void BM_MerkleProofVerify(benchmark::State& state) {
    std::vector<Digest> leaves;
    for (int i = 0; i < 500; ++i) {
        leaves.push_back(sha256("leaf" + std::to_string(i)));
    }
    const Digest root = merkle_root(leaves);
    const auto proof = merkle_proof(leaves, 250);
    for (auto _ : state) {
        benchmark::DoNotOptimize(verify_proof(leaves[250], *proof, root));
    }
}
BENCHMARK(BM_MerkleProofVerify);

void BM_SignVerify(benchmark::State& state) {
    KeyStore ks;
    ks.register_identity({"org0.peer0", OrgId{0}});
    const Bytes msg(512, 0x33);
    const Signature sig = ks.sign("org0.peer0", BytesView(msg.data(), msg.size()));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ks.verify(sig, BytesView(msg.data(), msg.size())));
    }
}
BENCHMARK(BM_SignVerify);

/// One envelope with 8 endorsements (priorities 0..2) over a small
/// transfer-like rwset, as every committer checks it.
struct EnvelopeFixture {
    KeyStore keys;
    ledger::Envelope env;

    EnvelopeFixture() {
        env.proposal.tx_id = TxId{42};
        env.proposal.client_identity = "org0.client0";
        env.proposal.chaincode = "asset_transfer";
        env.proposal.function = "transfer";
        env.proposal.args = {"alice", "bob", "10"};
        for (const char* key : {"acct/alice", "acct/bob"}) {
            env.rwset.reads.push_back(ledger::KvRead{key, ledger::Version{3, 1}});
            env.rwset.writes.push_back(ledger::KvWrite{key, "1000", false});
        }
        for (std::uint64_t org = 0; org < 8; ++org) {
            ledger::Endorsement e;
            e.endorser_identity = "org" + std::to_string(org) + ".peer0";
            e.org = OrgId{org};
            e.priority = static_cast<PriorityLevel>(org % 3);
            keys.register_identity({e.endorser_identity, e.org});
            const Bytes payload =
                ledger::Envelope::endorsement_payload(env.proposal, env.rwset, e.priority);
            e.response_hash = sha256(BytesView(payload));
            e.signature = keys.sign(e.endorser_identity, BytesView(payload));
            env.endorsements.push_back(e);
        }
    }
};

void BM_VerifyEnvelope(benchmark::State& state) {
    const EnvelopeFixture f;
    for (auto _ : state) {
        peer::EndorsementVerifier verifier(f.env.proposal, f.env.rwset, f.keys);
        for (const ledger::Endorsement& e : f.env.endorsements) {
            benchmark::DoNotOptimize(verifier.verify(e));
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.env.endorsements.size()));
}
BENCHMARK(BM_VerifyEnvelope);

/// The same checks one endorsement at a time (re-serializing per call).
void BM_VerifyEnvelopeOneByOne(benchmark::State& state) {
    const EnvelopeFixture f;
    for (auto _ : state) {
        for (const ledger::Endorsement& e : f.env.endorsements) {
            benchmark::DoNotOptimize(
                peer::verify_endorsement(f.env.proposal, f.env.rwset, e, f.keys));
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.env.endorsements.size()));
}
BENCHMARK(BM_VerifyEnvelopeOneByOne);

}  // namespace
