#include "sim/parallel.hpp"

#include <algorithm>
#include <thread>

#include "sim/worker_pool.hpp"

namespace strat::sim {

std::size_t recommended_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t chunk_count(std::size_t count, std::size_t threads,
                        std::size_t min_per_chunk) noexcept {
  if (count == 0 || threads <= 1) return count == 0 ? 0 : 1;
  const std::size_t by_grain =
      min_per_chunk == 0 ? count : std::max<std::size_t>(1, count / min_per_chunk);
  return std::min(threads, by_grain);
}

void parallel_for_chunks(
    std::size_t count, std::size_t threads, std::size_t min_per_chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = chunk_count(count, threads, min_per_chunk);
  if (chunks == 0) return;
  // Balanced contiguous split: the first `count % chunks` chunks get one
  // extra index.
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    body(begin, end, c);
  };
  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  // One pool worker per chunk except one the caller claims itself; the
  // persistent pool makes an N-chunk phase cost N - 1 wakeups instead
  // of N - 1 thread spawns per call.
  WorkerPool::shared().run(chunks, chunks, run_chunk);
}

}  // namespace strat::sim
