#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fl {
namespace {

/// The distinct threads that ran at least one body.
class ThreadSet {
public:
    void add() {
        std::lock_guard lock(mutex_);
        ids_.insert(std::this_thread::get_id());
    }
    [[nodiscard]] std::set<std::thread::id> ids() const {
        std::lock_guard lock(mutex_);
        return ids_;
    }

private:
    mutable std::mutex mutex_;
    std::set<std::thread::id> ids_;
};

TEST(ParallelForEachTest, VisitsEveryIndexExactlyOnce) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallel_for_each(4, n, [&visits](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelForEachTest, ZeroTasksReturnsImmediately) {
    bool ran = false;
    parallel_for_each(4, 0, [&ran](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelForEachTest, SingleTaskRunsOnCaller) {
    std::thread::id ran_on;
    int value = 0;
    parallel_for_each(4, 1, [&](std::size_t i) {
        ran_on = std::this_thread::get_id();
        value = static_cast<int>(i) + 41;
    });
    EXPECT_EQ(value, 41);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelForEachTest, OneThreadRunsEveryBodyOnCallerInOrder) {
    ThreadSet threads;
    std::vector<std::size_t> order;
    parallel_for_each(1, 100, [&](std::size_t i) {
        threads.add();
        order.push_back(i);  // unsynchronized on purpose: one thread only
    });
    EXPECT_EQ(threads.ids(), std::set<std::thread::id>{std::this_thread::get_id()});
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForEachTest, ZeroThreadsMeansHardwareConcurrency) {
    EXPECT_GE(resolve_threads(0), 1u);
    EXPECT_EQ(resolve_threads(3), 3u);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> visits(n);
    parallel_for_each(0, n, [&visits](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForEachTest, NeverRunsOnMoreThanMinThreadsCount) {
    for (const auto& [threads, count] :
         std::vector<std::pair<unsigned, std::size_t>>{{3, 200}, {8, 2}, {2, 50}}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, " +
                     std::to_string(count) + " tasks");
        ThreadSet seen;
        parallel_for_each(threads, count, [&seen](std::size_t) {
            seen.add();
            // Long enough that every started thread gets to claim work.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
        EXPECT_LE(seen.ids().size(), std::min<std::size_t>(threads, count));
    }
}

TEST(ParallelForEachTest, ResultsLandInPreSizedSlots) {
    const std::size_t n = 257;
    std::vector<std::size_t> out(n, 0);
    parallel_for_each(4, n, [&out](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForEachTest, ManyMoreTasksThanThreads) {
    const std::size_t n = 5000;
    std::atomic<std::uint64_t> sum{0};
    parallel_for_each(2, n, [&sum](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelForEachTest, PropagatesFirstException) {
    const auto body = [](std::size_t i) {
        if (i == 13) throw std::runtime_error("boom");
    };
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        EXPECT_THROW(parallel_for_each(threads, 100, body), std::runtime_error);
    }
}

TEST(ParallelForEachTest, HelperExceptionReachesCallerAndStopsClaims) {
    // The helper thread throws on its first index; the caller's body waits
    // for that throw and then lingers, so by the time the caller returns to
    // the counter the failure has long been recorded.  No index may be
    // claimed after that point.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    std::atomic<bool> caller_resumed{false};
    std::atomic<int> claimed_after{0};
    std::atomic<int> bodies{0};
    try {
        parallel_for_each(2, 100'000, [&](std::size_t) {
            bodies.fetch_add(1);
            if (caller_resumed.load()) claimed_after.fetch_add(1);
            if (std::this_thread::get_id() != caller) {
                thrown.store(true);
                throw std::runtime_error("helper");
            }
            while (!thrown.load()) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            caller_resumed.store(true);
        });
        FAIL() << "expected the helper's exception on the caller";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "helper");
    }
    EXPECT_TRUE(thrown.load());
    EXPECT_EQ(claimed_after.load(), 0);
    EXPECT_LE(bodies.load(), 2);
}

TEST(ParallelForEachTest, CallableAgainAfterException) {
    try {
        parallel_for_each(4, 50, [](std::size_t) { throw std::runtime_error("boom"); });
        FAIL() << "expected throw";
    } catch (const std::runtime_error&) {
    }
    std::atomic<int> counter{0};
    parallel_for_each(4, 64, [&counter](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace fl
