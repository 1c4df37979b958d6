// Harness: workload distribution, driver scheduling, experiment aggregation
// and report rendering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/workload.h"

namespace fl::harness {
namespace {

core::NetworkConfig tiny_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.block_size = 10;
    cfg.channel.block_timeout = Duration::millis(100);
    cfg.endorsement_k = 2;
    return cfg;
}

TEST(WorkloadTest, DistributeTotalProportional) {
    Workload w;
    for (const double tps : {100.0, 200.0, 100.0}) {
        LoadSpec load;
        load.tps = tps;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(1000);
    EXPECT_EQ(w.loads[0].total_txs + w.loads[1].total_txs + w.loads[2].total_txs,
              1000u);
    EXPECT_EQ(w.loads[1].total_txs, 500u);
    EXPECT_NEAR(static_cast<double>(w.loads[0].total_txs), 250.0, 1.0);
}

TEST(WorkloadTest, DistributeRemainderExact) {
    Workload w;
    for (int i = 0; i < 3; ++i) {
        LoadSpec load;
        load.tps = 1.0;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(100);  // 100/3 does not divide evenly
    std::uint64_t sum = 0;
    for (const auto& l : w.loads) sum += l.total_txs;
    EXPECT_EQ(sum, 100u);
}

TEST(WorkloadTest, DistributeZeroRateThrows) {
    Workload w;
    LoadSpec load;
    load.tps = 0.0;
    w.loads.push_back(std::move(load));
    EXPECT_THROW(w.distribute_total(10), std::invalid_argument);
}

TEST(WorkloadDriverTest, ValidatesSpecs) {
    core::FabricNetwork net(tiny_config());
    {
        Workload w;  // empty
        EXPECT_THROW(WorkloadDriver(net, std::move(w), Rng(1)), std::invalid_argument);
    }
    {
        Workload w;
        LoadSpec load;
        load.client_index = 99;  // out of range
        load.tps = 10.0;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
        EXPECT_THROW(WorkloadDriver(net, std::move(w), Rng(1)), std::invalid_argument);
    }
    {
        Workload w;
        LoadSpec load;
        load.tps = 10.0;  // no generator
        w.loads.push_back(std::move(load));
        EXPECT_THROW(WorkloadDriver(net, std::move(w), Rng(1)), std::invalid_argument);
    }
}

TEST(WorkloadDriverTest, SubmitsExactlyTotal) {
    core::FabricNetwork net(tiny_config());
    std::uint64_t completed = 0;
    net.set_tx_sink([&completed](const client::TxRecord&) { ++completed; });
    Workload w;
    for (std::size_t c = 0; c < 2; ++c) {
        LoadSpec load;
        load.client_index = c;
        load.tps = 100.0;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(60);
    WorkloadDriver driver(net, std::move(w), Rng(3));
    driver.start();
    net.run();
    EXPECT_EQ(driver.submitted(), 60u);
    EXPECT_EQ(completed, 60u);
}

TEST(WorkloadDriverTest, DeterministicArrivals) {
    // Same seed, two networks: identical inter-arrival sequences.
    auto run_one = [](std::uint64_t seed) {
        core::FabricNetwork net(tiny_config());
        double last_completion = 0.0;
        net.set_tx_sink([&last_completion](const client::TxRecord& r) {
            last_completion = r.completed_at.as_seconds();
        });
        Workload w;
        LoadSpec load;
        load.client_index = 0;
        load.tps = 200.0;
        load.total_txs = 50;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
        WorkloadDriver driver(net, std::move(w), Rng(seed));
        driver.start();
        net.run();
        return last_completion;
    };
    EXPECT_EQ(run_one(9), run_one(9));
    EXPECT_NE(run_one(9), run_one(10));
}

TEST(GeneratorFactoryTest, ClassGeneratorsHitExpectedChaincode) {
    core::FabricNetwork net(tiny_config());
    std::vector<std::string> seen;
    net.set_tx_sink([&seen](const client::TxRecord& r) { seen.push_back(r.chaincode); });
    Rng rng(1);
    class_tx_generator(0)(*net.clients()[0], rng);
    class_tx_generator(1)(*net.clients()[0], rng);
    class_tx_generator(2)(*net.clients()[0], rng);
    net.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_TRUE(std::count(seen.begin(), seen.end(), "asset_transfer") == 1);
    EXPECT_TRUE(std::count(seen.begin(), seen.end(), "supply_chain") == 1);
    EXPECT_TRUE(std::count(seen.begin(), seen.end(), "record_keeper") == 1);
}

TEST(GeneratorFactoryTest, MixRespectsWeights) {
    core::FabricNetwork net(tiny_config());
    std::map<std::string, int> counts;
    net.set_tx_sink([&counts](const client::TxRecord& r) { ++counts[r.chaincode]; });
    auto gen = priority_class_mix({1, 2, 1});
    Rng rng(77);
    for (int i = 0; i < 800; ++i) {
        gen(*net.clients()[0], rng);
    }
    net.run();
    EXPECT_NEAR(counts["supply_chain"],
                counts["asset_transfer"] + counts["record_keeper"], 120);
}

TEST(GeneratorFactoryTest, InvalidSpecsThrow) {
    EXPECT_THROW(priority_class_mix({}), std::invalid_argument);
    EXPECT_THROW(priority_class_mix({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(priority_class_mix({-1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(single_chaincode("ghost"), std::invalid_argument);
    EXPECT_THROW(contended_transfers(1), std::invalid_argument);
}

TEST(ExperimentTest, AggregatesAcrossRuns) {
    ExperimentSpec spec;
    spec.config = tiny_config();
    spec.make_workload = [] {
        Workload w;
        LoadSpec load;
        load.client_index = 0;
        load.tps = 100.0;
        load.total_txs = 40;
        load.generate = single_chaincode("record_keeper");
        w.loads.push_back(std::move(load));
        return w;
    };
    spec.runs = 3;
    spec.base_seed = 500;
    const AggregateResult agg = run_experiment(spec);
    EXPECT_EQ(agg.total_committed, 120u);
    EXPECT_EQ(agg.overall_latency.runs(), 3u);
    EXPECT_GT(agg.overall_latency.mean(), 0.0);
    EXPECT_TRUE(agg.all_consistent);
    EXPECT_GT(agg.throughput_tps.mean(), 0.0);
}

TEST(ExperimentTest, ValidatesSpec) {
    ExperimentSpec spec;
    spec.config = tiny_config();
    EXPECT_THROW((void)run_experiment(spec), std::invalid_argument);  // no workload
    spec.make_workload = [] { return Workload{}; };
    spec.runs = 0;
    EXPECT_THROW((void)run_experiment(spec), std::invalid_argument);
}

/// Sets (or with nullptr unsets) an environment variable for one scope,
/// restoring its previous value afterwards.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) previous_ = old;
        set(value);
    }
    ~ScopedEnv() { set(previous_ ? previous_->c_str() : nullptr); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    void set(const char* value) {
        if (value == nullptr) {
            ::unsetenv(name_);
        } else {
            ::setenv(name_, value, /*overwrite=*/1);
        }
    }

    const char* name_;
    std::optional<std::string> previous_;
};

TEST(EnvTest, UnsetOrEmptyFallsBack) {
    {
        const ScopedEnv runs("FAIRLEDGER_RUNS", nullptr);
        const ScopedEnv txs("FAIRLEDGER_TOTAL_TXS", nullptr);
        EXPECT_EQ(runs_from_env(7), 7u);
        EXPECT_EQ(total_txs_from_env(1500), 1500u);
    }
    const ScopedEnv runs("FAIRLEDGER_RUNS", "");
    const ScopedEnv txs("FAIRLEDGER_TOTAL_TXS", "");
    EXPECT_EQ(runs_from_env(7), 7u);
    EXPECT_EQ(total_txs_from_env(1500), 1500u);
}

TEST(EnvTest, ParsesWellFormedCounts) {
    const ScopedEnv runs("FAIRLEDGER_RUNS", "10");
    const ScopedEnv txs("FAIRLEDGER_TOTAL_TXS", "15000");
    EXPECT_EQ(runs_from_env(1), 10u);
    EXPECT_EQ(total_txs_from_env(1), 15000u);
}

TEST(EnvTest, RejectsMalformedZeroAndOutOfRangeValues) {
    const std::pair<const char*, const char*> cases[] = {
        {"FAIRLEDGER_RUNS", "1x"},
        {"FAIRLEDGER_RUNS", "x1"},
        {"FAIRLEDGER_RUNS", " 1"},
        {"FAIRLEDGER_RUNS", "-1"},
        {"FAIRLEDGER_RUNS", "+1"},
        {"FAIRLEDGER_RUNS", "0"},
        {"FAIRLEDGER_RUNS", "4294967296"},  // wrapped to 0 under strtoull
        {"FAIRLEDGER_TOTAL_TXS", "300abc"},
        {"FAIRLEDGER_TOTAL_TXS", "3e5"},
        {"FAIRLEDGER_TOTAL_TXS", "0"},
        {"FAIRLEDGER_TOTAL_TXS", "18446744073709551616"},
    };
    for (const auto& [name, bad] : cases) {
        SCOPED_TRACE(std::string(name) + "=" + bad);
        const ScopedEnv env(name, bad);
        try {
            if (std::string(name) == "FAIRLEDGER_RUNS") {
                (void)runs_from_env(1);
            } else {
                (void)total_txs_from_env(1);
            }
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
        }
    }
}

TEST(ReportTest, TableRendersAligned) {
    Table t({"name", "value"});
    t.add_row({"alpha", "1.0"});
    t.add_row({"a-very-long-name", "2"});
    t.add_row({"short"});  // missing cells padded
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name "), std::string::npos);
    EXPECT_NE(out.find("a-very-long-name"), std::string::npos);
    // All lines equal length (aligned columns).
    std::istringstream is(out);
    std::string line;
    std::size_t len = 0;
    while (std::getline(is, line)) {
        if (len == 0) len = line.size();
        EXPECT_EQ(line.size(), len);
    }
}

TEST(ReportTest, FmtFormats) {
    EXPECT_EQ(fmt(1.23456), "1.235");
    EXPECT_EQ(fmt(2.0, 1), "2.0");
}

}  // namespace
}  // namespace fl::harness
