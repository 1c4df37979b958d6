#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace fl {

unsigned resolve_threads(unsigned threads) {
    return threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for_each(unsigned threads, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto run = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                next = count;  // nobody claims further work
                std::lock_guard lock(error_mutex);
                if (!error) error = std::current_exception();
            }
        }
    };
    const std::size_t width = std::min<std::size_t>(resolve_threads(threads), count);
    std::vector<std::jthread> helpers;  // unwinding joins them if a start throws
    for (std::size_t h = 1; h < width; ++h) helpers.emplace_back(run);
    run();
    helpers.clear();  // joins
    if (error) std::rethrow_exception(error);
}

}  // namespace fl
