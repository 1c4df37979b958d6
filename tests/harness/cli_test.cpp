// CLI hardening for the bench drivers: strict numeric parsing and typed
// rejection (exit code 2) of malformed / zero / negative count flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace fl::harness {
namespace {

// -- parse_cli_u64: the strict parser itself --------------------------------

TEST(CliParseTest, AcceptsPlainDigits) {
    EXPECT_EQ(parse_cli_u64("0"), std::uint64_t{0});
    EXPECT_EQ(parse_cli_u64("1"), std::uint64_t{1});
    EXPECT_EQ(parse_cli_u64("123456789"), std::uint64_t{123456789});
    EXPECT_EQ(parse_cli_u64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(CliParseTest, RejectsSignsWhitespaceAndGarbage) {
    EXPECT_EQ(parse_cli_u64("-1"), std::nullopt);   // strtoull would wrap this
    EXPECT_EQ(parse_cli_u64("+1"), std::nullopt);
    EXPECT_EQ(parse_cli_u64(" 1"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("1 "), std::nullopt);
    EXPECT_EQ(parse_cli_u64("12abc"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("abc"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("0x10"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("1.5"), std::nullopt);
    EXPECT_EQ(parse_cli_u64(""), std::nullopt);
    EXPECT_EQ(parse_cli_u64(nullptr), std::nullopt);
}

TEST(CliParseTest, RejectsOverflow) {
    EXPECT_EQ(parse_cli_u64("18446744073709551616"), std::nullopt);  // 2^64
    EXPECT_EQ(parse_cli_u64("99999999999999999999999"), std::nullopt);
}

// -- parse_sweep_cli: rejection paths exit with code 2 -----------------------

SweepCli parse(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bench");
    return parse_sweep_cli(static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()), 42, "cli_test");
}

TEST(CliDeathTest, ZeroTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, NegativeTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "-5"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MalformedTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "12abc"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroRunsRejected) {
    EXPECT_EXIT(parse({"--runs", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, NegativeRunsRejected) {
    EXPECT_EXIT(parse({"--runs", "-1"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroThreadsRejected) {
    EXPECT_EXIT(parse({"--threads", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, MalformedThreadsRejected) {
    EXPECT_EXIT(parse({"--threads", "two"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MalformedSeedRejected) {
    EXPECT_EXIT(parse({"--seed", "0x10"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MissingValueRejected) {
    EXPECT_EXIT(parse({"--txs"}), ::testing::ExitedWithCode(2), "missing value");
}

// -- bench-specific flags (BenchFlag) ----------------------------------------

struct BenchParse {
    BenchFlag accounts{"--accounts", "account count", 1'000'000, true};
    BenchFlag width{"--width", "fan-out width", 0, true, 256};
    BenchFlag zipf{"--zipf", "skew hundredths", 99, false, 99};
    SweepCli cli;

    explicit BenchParse(std::vector<const char*> argv) {
        argv.insert(argv.begin(), "bench");
        cli = parse_sweep_cli(static_cast<int>(argv.size()),
                              const_cast<char**>(argv.data()), 42, "cli_test",
                              {&accounts, &width, &zipf});
    }
};

TEST(CliUsageTest, EachBenchFlagLinePrintsOneDefault) {
    BenchFlag accounts{"--accounts", "world-state account count", 1'000'000, true};
    BenchFlag width{"--width", "fan-out width", 0, true, 256};
    BenchFlag zipf{"--zipf", "Zipf skew theta in hundredths", 99, false, 99};
    std::ostringstream os;
    write_usage(os, "scale_state", {&accounts, &width, &zipf});
    const std::string text = os.str();

    const auto count = [](const std::string& hay, const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t pos = hay.find(needle); pos != std::string::npos;
             pos = hay.find(needle, pos + needle.size())) {
            ++n;
        }
        return n;
    };
    for (const BenchFlag* flag : {&accounts, &width, &zipf}) {
        SCOPED_TRACE(flag->name);
        EXPECT_EQ(count(text, flag->name + " "), 1u);
        const std::size_t begin = text.find(flag->name);
        ASSERT_NE(begin, std::string::npos);
        const std::string line = text.substr(begin, text.find('\n', begin) - begin);
        EXPECT_EQ(count(line, "default"), 1u) << line;
    }
    EXPECT_NE(text.find("--accounts N   world-state account count (default: 1000000)"),
              std::string::npos);
}

TEST(CliParseTest, BenchFlagsKeepDefaultsWhenAbsent) {
    const BenchParse p({"--txs", "10"});
    EXPECT_EQ(p.accounts.value, 1'000'000u);
    EXPECT_FALSE(p.accounts.seen);
    EXPECT_EQ(p.width.value, 0u);
    EXPECT_FALSE(p.width.seen);
    EXPECT_EQ(p.zipf.value, 99u);
}

TEST(CliParseTest, BenchFlagsParseAlongsideSharedFlags) {
    const BenchParse p({"--accounts", "5000", "--threads", "2", "--width",
                        "8", "--zipf", "0"});
    EXPECT_EQ(p.accounts.value, 5000u);
    EXPECT_TRUE(p.accounts.seen);
    EXPECT_EQ(p.width.value, 8u);
    EXPECT_TRUE(p.width.seen);
    EXPECT_EQ(p.zipf.value, 0u);  // positive=false: zero allowed
    EXPECT_TRUE(p.zipf.seen);
    EXPECT_EQ(p.cli.threads, 2u);
}

TEST(CliDeathTest, MalformedBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--accounts", "1e6"}),
                ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeathTest, NegativeBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--accounts", "-3"}),
                ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeathTest, ZeroPositiveBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--width", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, BenchFlagAboveMaxRejected) {
    EXPECT_EXIT(BenchParse({"--zipf", "100"}), ::testing::ExitedWithCode(2),
                "must be <= 99");
    EXPECT_EXIT(BenchParse({"--width", "257"}), ::testing::ExitedWithCode(2),
                "must be <= 256");
}

TEST(CliDeathTest, BenchFlagMissingValueRejected) {
    EXPECT_EXIT(BenchParse({"--accounts"}), ::testing::ExitedWithCode(2),
                "missing value");
}

TEST(CliDeathTest, UnknownFlagStillRejectedWithBenchFlags) {
    EXPECT_EXIT(BenchParse({"--nope", "1"}), ::testing::ExitedWithCode(2),
                "unknown option");
}

// -- accepted values round-trip ---------------------------------------------

TEST(CliParseTest, ValidFlagsParse) {
    const SweepCli cli =
        parse({"--txs", "1000", "--runs", "3", "--threads", "4", "--seed", "7"});
    ASSERT_TRUE(cli.total_txs.has_value());
    EXPECT_EQ(*cli.total_txs, 1000u);
    ASSERT_TRUE(cli.runs.has_value());
    EXPECT_EQ(*cli.runs, 3u);
    EXPECT_EQ(cli.threads, 4u);
    EXPECT_EQ(cli.base_seed, 7u);
}

TEST(CliParseTest, SeedZeroIsAllowed) {
    // --seed is a raw u64, not a count: 0 is a legitimate seed.
    EXPECT_EQ(parse({"--seed", "0"}).base_seed, 0u);
}

// -- fairness-audit flags -----------------------------------------------------

TEST(CliParseTest, AuditFlagsDefaultOff) {
    const SweepCli cli = parse({"--txs", "10"});
    EXPECT_FALSE(cli.audit);
    EXPECT_FALSE(cli.audit_window_seen);
    EXPECT_EQ(cli.audit_window_ms, 1000u);
}

TEST(CliParseTest, AuditFlagsParse) {
    const SweepCli cli = parse({"--audit", "--audit-window", "250"});
    EXPECT_TRUE(cli.audit);
    EXPECT_TRUE(cli.audit_window_seen);
    EXPECT_EQ(cli.audit_window_ms, 250u);
    EXPECT_EQ(cli.audit_config().window, Duration::millis(250));
}

TEST(CliParseTest, AuditWindowDefaultsToOneSecond) {
    EXPECT_EQ(parse({"--audit"}).audit_config().window, Duration::seconds(1));
}

TEST(CliDeathTest, AuditWindowMissingValueRejected) {
    EXPECT_EXIT(parse({"--audit-window"}), ::testing::ExitedWithCode(2),
                "missing value");
}

TEST(CliDeathTest, MalformedAuditWindowRejected) {
    EXPECT_EXIT(parse({"--audit-window", "2s"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroAuditWindowRejected) {
    EXPECT_EXIT(parse({"--audit-window", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

// -- apply_audit_cli ----------------------------------------------------------

SweepSpec two_point_spec() {
    SweepSpec spec;
    spec.points.resize(2);
    spec.points[0].label = "plain";
    spec.points[1].label = "preconfigured";
    spec.points[1].spec.audit = obs::audit::AuditConfig{};
    spec.points[1].spec.audit->window = Duration::millis(2000);
    return spec;
}

TEST(CliParseTest, ApplyAuditCliAttachesDefaultConfig) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--audit"}));
    ASSERT_TRUE(spec.points[0].spec.audit.has_value());
    EXPECT_EQ(spec.points[0].spec.audit->window, Duration::seconds(1));
    // A bench-provided audit config (its window tuned to its scenario) wins.
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(2000));
}

TEST(CliParseTest, ApplyAuditCliExplicitWindowOverridesEveryPoint) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--audit", "--audit-window", "500"}));
    EXPECT_EQ(spec.points[0].spec.audit->window, Duration::millis(500));
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(500));
}

TEST(CliParseTest, ApplyAuditCliIsANoOpWithoutFlags) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--txs", "10"}));
    EXPECT_FALSE(spec.points[0].spec.audit.has_value());
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(2000));
}

}  // namespace
}  // namespace fl::harness
