// Blocking fork-join over independent work units.  Bodies write pre-sized
// slots indexed by unit, so no result depends on the thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace fl {

/// 0 means std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned threads);

/// Runs `body(0) .. body(count - 1)` on the caller and on
/// `min(resolve_threads(threads), count) - 1` threads started and joined by
/// this call (none for one thread or `count <= 1`).  A throwing body stops
/// further index claims; the first exception is rethrown on the caller.
void parallel_for_each(unsigned threads, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace fl
