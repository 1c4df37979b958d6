#include "ledger/world_state.h"

#include <stdexcept>
#include <string_view>

namespace fl::ledger {

WorldState::WorldState(std::size_t stripes) {
    if (stripes != 1) {
        throw std::invalid_argument("WorldState: the store has one stripe, got " +
                                    std::to_string(stripes));
    }
}

std::optional<std::string> WorldState::get(const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.value;
}

std::optional<Version> WorldState::version_of(const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.version;
}

void WorldState::apply(const KvWrite& write, Version version) {
    auto it = entries_.find(write.key);
    if (write.is_delete) {
        if (it != entries_.end()) {
            bytes_ -= it->first.size() + it->second.value.size();
            entries_.erase(it);
        }
        return;
    }
    if (it == entries_.end()) {
        bytes_ += write.key.size() + write.value.size();
        entries_.emplace(write.key, VersionedValue{write.value, version});
    } else {
        bytes_ += write.value.size();
        bytes_ -= it->second.value.size();
        it->second = VersionedValue{write.value, version};
    }
}

void WorldState::apply_all(const ReadWriteSet& rwset, Version version) {
    for (const KvWrite& w : rwset.writes) {
        apply(w, version);
    }
}

std::vector<KvRead> WorldState::range(const std::string& start_key,
                                      const std::string& end_key) const {
    std::vector<KvRead> out;
    for (auto it = entries_.lower_bound(start_key);
         it != entries_.end() && it->first < end_key; ++it) {
        out.push_back(KvRead{it->first, it->second.version});
    }
    return out;
}

bool WorldState::validate_reads(const ReadWriteSet& rwset) const {
    for (const KvRead& r : rwset.reads) {
        if (version_of(r.key) != r.version) return false;
    }
    for (const RangeRead& rr : rwset.range_reads) {
        if (range(rr.start_key, rr.end_key) != rr.observed) return false;
    }
    return true;
}

std::uint64_t WorldState::fingerprint() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::string_view s) {
        for (char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 0x100000001b3ull;
        }
        h ^= 0xFF;
        h *= 0x100000001b3ull;
    };
    for (const auto& [key, vv] : entries_) {
        mix(key);
        mix(vv.value);
        h ^= vv.version.block * 0x9E3779B97F4A7C15ull + vv.version.tx_num;
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace fl::ledger
