// Minimal parallel loop over a persistent worker pool.
//
// parallel_for_chunks() splits a dense index range into at most
// `threads` contiguous chunks (each at least `min_per_chunk` wide, so
// tiny ranges run inline instead of paying a pool wakeup) and hands
// each worker a [begin, end) range plus a stable chunk id it can key
// per-worker scratch buffers by. Every parallel loop of the swarm
// simulator goes through it, so strat-lint's lambda checks (R2/R5) see
// them all: scenario replications write per-index result slots from
// independently seeded Rngs; the swarm round phases are pure
// (fold_rates), draw from per-peer counter-based RNG streams
// (choke_step) or write only per-chunk plan buffers (transfer
// compute); TrackerSim's shard workers claim whole swarms from a
// shared cursor. Results stay bitwise identical at any thread count.
//
// The loop runs on WorkerPool::shared() (see worker_pool.hpp): threads
// are spawned once, on demand, and reused across every phase of every
// round instead of being spawned per call. Nested calls (a parallel
// loop issued from inside a pool task) degrade to inline execution.
#pragma once

#include <cstddef>
#include <functional>

namespace strat::sim {

/// Worker count to use by default: std::thread::hardware_concurrency(),
/// with a floor of 1 when the runtime reports 0.
[[nodiscard]] std::size_t recommended_threads() noexcept;

/// Number of contiguous chunks parallel_for_chunks() will use for the
/// same arguments: min(threads, count / min_per_chunk), floored at 1.
/// Callers size per-chunk scratch with this.
[[nodiscard]] std::size_t chunk_count(std::size_t count, std::size_t threads,
                                      std::size_t min_per_chunk) noexcept;

/// Invokes body(begin, end, chunk) over a partition of [0, count) into
/// chunk_count(...) contiguous ranges; chunk ids are dense in
/// [0, chunk_count) and each is claimed by exactly one worker, so
/// body may use `chunk` to index scratch without synchronization.
/// The caller participates (N chunks cost at most N - 1 pool wakeups,
/// zero thread spawns once the pool is warm). body must be safe to
/// call concurrently for distinct chunks; the first exception is
/// rethrown on the caller after the job completes.
void parallel_for_chunks(
    std::size_t count, std::size_t threads, std::size_t min_per_chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace strat::sim
