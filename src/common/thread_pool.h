// Work-stealing thread pool and a blocking parallel-for helper.
//
// The simulator itself stays single-threaded (determinism depends on it); the
// pool exists one layer up, where work splits into *independent* units — one
// sweep point = one simulation with its own Simulator, FabricNetwork and
// MetricsCollector — that share nothing and can run on any worker in any
// order.  Each worker owns a deque: the owner pushes/pops at the back (LIFO,
// cache-warm), idle workers steal from the front of a victim's deque (FIFO,
// oldest first), and external threads submit through a shared injector queue.
//
// Results must not depend on scheduling: callers write into pre-sized slots
// indexed by work-unit id (see `parallel_for_each` and `harness::run_sweep`),
// never into shared accumulators.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fl {

class ThreadPool {
public:
    /// Spawns `threads` workers; 0 means `std::thread::hardware_concurrency()`
    /// (at least 1).
    explicit ThreadPool(unsigned threads = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Drains every queued task, then joins the workers.
    ~ThreadPool();

    /// Enqueues a task.  Called from a worker of this pool the task goes to
    /// that worker's own deque (LIFO); otherwise to the injector queue.
    void submit(std::function<void()> task);

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Queued-but-not-started tasks (approximate; for tests/diagnostics).
    [[nodiscard]] std::size_t pending() const { return pending_.load(); }

private:
    struct Queue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void worker_loop(std::size_t self);
    bool try_pop(std::size_t self, std::function<void()>& task);
    static bool pop_back(Queue& q, std::function<void()>& task);
    static bool pop_front(Queue& q, std::function<void()>& task);

    std::vector<std::unique_ptr<Queue>> queues_;  // one per worker
    Queue injector_;                              // external submissions

    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    bool stopping_ = false;
    std::atomic<std::size_t> pending_{0};

    std::vector<std::thread> workers_;
};

/// Invokes `body(0) .. body(count - 1)` across the pool's workers (the
/// calling thread participates too) and blocks until every call returned.
/// Indices are claimed dynamically, so unequal per-index costs balance out.
///
/// If any invocation throws, no further indices are claimed (in-flight ones
/// finish) and the first captured exception is rethrown here.  `count == 0`
/// returns immediately without touching the pool.
///
/// Safe to call from inside a pool task (nested fork-join): the caller only
/// waits for bodies actively executing on other workers, never for queued
/// helper tasks — a saturated pool of concurrent callers cannot deadlock.
/// Nested calls whose bodies themselves fork recurse at most as deep as the
/// call structure.  No production path nests today (sweep points and
/// run_multi_channel each fork once from their caller); the support stays
/// so a pool can be lent into pool tasks without a deadlock audit.
void parallel_for_each(ThreadPool& pool, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace fl
