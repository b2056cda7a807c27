// Persistent fork-join worker pool behind the parallel loop.
//
// parallel_for_chunks() used to spawn fresh std::threads on every
// call — measurable once a swarm round fans out four-plus phases
// (choke, endgame count, transfer compute, fold) at 10^5 peers.
// WorkerPool keeps the threads alive across calls: run() publishes a
// job (a task count plus a body), wakes the sleeping workers, joins in
// itself, and blocks until every task has executed. Workers claim task
// indices from a shared atomic counter, so the *schedule* is
// nondeterministic but callers only ever see the completed result —
// determinism is the caller's per-task contract, exactly as with the
// old spawn-per-call loops.
//
// Lifetime and growth: threads are spawned lazily, on demand, up to the
// largest max_workers any run() has asked for (capped at kMaxWorkers).
// A request for 8 workers on a 1-core box still spawns 8 real threads —
// intentional, so TSan sees genuine interleavings on the 1-core dev
// container. The process-wide pool behind the free-function loops lives
// until exit; tests may construct private pools freely (construction is
// cheap until the first multi-worker run()).
//
// Re-entrancy: a run() issued from inside a pool task (nested
// parallelism) executes inline on that worker rather than deadlocking
// or over-subscribing. Exceptions thrown by tasks are captured, the
// remaining tasks still run, and the first one is rethrown on the
// caller after the job completes — matching the old loops' contract.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace strat::sim {

class WorkerPool {
 public:
  /// Hard cap on pool threads, far above any sane fan-out request.
  static constexpr std::size_t kMaxWorkers = 256;

  WorkerPool() = default;
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs body(i) for every i in [0, tasks), using the calling thread
  /// plus up to max_workers - 1 pool threads (grown on demand). Blocks
  /// until all tasks finish; rethrows the first task exception.
  /// tasks <= 1, max_workers <= 1, or a call from inside a pool task
  /// all run inline on the caller.
  void run(std::size_t tasks, std::size_t max_workers,
           const std::function<void(std::size_t)>& body);

  /// Threads currently alive in this pool.
  [[nodiscard]] std::size_t spawned() const;

  /// The process-wide pool parallel_for_chunks() runs on.
  [[nodiscard]] static WorkerPool& shared();

 private:
  struct Job;

  /// Claim-and-execute loop run by the caller and every participating
  /// worker; returns once the task counter is exhausted.
  static void work(Job& job);
  void worker_loop();
  /// Spawns threads until `target` are alive (capped). Caller must not
  /// hold mutex_.
  void ensure_spawned(std::size_t target);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;     // guarded by mutex_
  std::uint64_t generation_ = 0;  // guarded by mutex_; bumped per job
  bool stop_ = false;             // guarded by mutex_
};

}  // namespace strat::sim
