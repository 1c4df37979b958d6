// Single-map reference world state: an independent, deliberately plain
// implementation kept as the differential oracle for ledger::WorldState.
//
// tests/ledger/world_state_test.cpp replays identical randomized write
// streams into both stores and requires get/version_of/range/
// validate_reads/key_count/fingerprint to agree.  It lives with the tests,
// not in the library: it exists only so the store's observable contract
// stays machine-checked instead of argued.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "ledger/rwset.h"

namespace fl::ledger {

class ReferenceWorldState {
public:
    [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
    [[nodiscard]] std::optional<Version> version_of(const std::string& key) const;
    void apply(const KvWrite& write, Version version);
    void apply_all(const ReadWriteSet& rwset, Version version);
    [[nodiscard]] std::vector<KvRead> range(const std::string& start_key,
                                            const std::string& end_key) const;
    [[nodiscard]] bool validate_reads(const ReadWriteSet& rwset) const;
    [[nodiscard]] std::size_t key_count() const { return state_.size(); }
    [[nodiscard]] std::uint64_t fingerprint() const;

private:
    struct Entry {
        std::string value;
        Version version;
    };
    std::map<std::string, Entry, std::less<>> state_;
};

}  // namespace fl::ledger
