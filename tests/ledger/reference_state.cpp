#include "reference_state.h"

namespace fl::ledger {

std::optional<std::string> ReferenceWorldState::get(const std::string& key) const {
    const auto it = state_.find(key);
    if (it == state_.end()) return std::nullopt;
    return it->second.value;
}

std::optional<Version> ReferenceWorldState::version_of(const std::string& key) const {
    const auto it = state_.find(key);
    if (it == state_.end()) return std::nullopt;
    return it->second.version;
}

void ReferenceWorldState::apply(const KvWrite& write, Version version) {
    if (write.is_delete) {
        state_.erase(write.key);
        return;
    }
    state_[write.key] = Entry{write.value, version};
}

void ReferenceWorldState::apply_all(const ReadWriteSet& rwset, Version version) {
    for (const KvWrite& w : rwset.writes) {
        apply(w, version);
    }
}

std::vector<KvRead> ReferenceWorldState::range(const std::string& start_key,
                                               const std::string& end_key) const {
    std::vector<KvRead> out;
    for (auto it = state_.lower_bound(start_key);
         it != state_.end() && it->first < end_key; ++it) {
        out.push_back(KvRead{it->first, it->second.version});
    }
    return out;
}

bool ReferenceWorldState::validate_reads(const ReadWriteSet& rwset) const {
    for (const KvRead& r : rwset.reads) {
        if (version_of(r.key) != r.version) return false;
    }
    for (const RangeRead& rr : rwset.range_reads) {
        if (range(rr.start_key, rr.end_key) != rr.observed) return false;
    }
    return true;
}

std::uint64_t ReferenceWorldState::fingerprint() const {
    // FNV-1a over the sorted (key, value, version) stream; std::map iterates
    // in key order so the fingerprint is canonical.  The sharded
    // WorldState::fingerprint must reproduce this bit for bit.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::string_view s) {
        for (char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 0x100000001b3ull;
        }
        h ^= 0xFF;
        h *= 0x100000001b3ull;
    };
    for (const auto& [key, entry] : state_) {
        mix(key);
        mix(entry.value);
        h ^= entry.version.block * 0x9E3779B97F4A7C15ull + entry.version.tx_num;
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace fl::ledger
