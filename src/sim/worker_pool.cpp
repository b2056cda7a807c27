#include "sim/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace strat::sim {

namespace {
// Set for the lifetime of every pool thread, and on the caller while it
// drains its own job: a run() issued from inside a task must execute
// inline instead of publishing a nested job (the nested caller would
// participate in draining whatever job is current — including its own
// parent's tasks — and could self-deadlock waiting for a task stuck
// behind it).
thread_local bool tls_pool_worker = false;

void run_inline(std::size_t tasks, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < tasks; ++i) body(i);
}
}  // namespace

/// One published fan-out. Heap-held behind a shared_ptr so a worker
/// that wakes late — after the publishing run() already returned and a
/// new job took the slot — still holds a valid Job whose exhausted
/// counter turns its claim loop into a no-op, instead of racing a
/// recycled counter against the wrong body.
struct WorkerPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t tasks = 0;
  /// Pool workers allowed in (the caller is always in addition).
  std::size_t worker_limit = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> unfinished{0};
  std::atomic<std::size_t> entered{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t WorkerPool::spawned() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void WorkerPool::ensure_spawned(std::size_t target) {
  target = std::min(target, kMaxWorkers);
  const std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < target) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void WorkerPool::work(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.tasks) return;
    try {
      (*job.body)(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    job.unfinished.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void WorkerPool::run(std::size_t tasks, std::size_t max_workers,
                     const std::function<void(std::size_t)>& body) {
  if (tasks == 0) return;
  max_workers = std::min(max_workers, tasks);
  if (tasks == 1 || max_workers <= 1 || tls_pool_worker) {
    run_inline(tasks, body);
    return;
  }
  ensure_spawned(max_workers - 1);
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->tasks = tasks;
  job->worker_limit = max_workers - 1;
  job->unfinished.store(tasks, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();
  // work() never throws (task exceptions are captured), so the flag
  // always resets.
  tls_pool_worker = true;
  work(*job);
  tls_pool_worker = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job->unfinished.load(std::memory_order_acquire) == 0; });
    if (job_ == job) job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

void WorkerPool::worker_loop() {
  tls_pool_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || (generation_ != seen && job_ != nullptr); });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    // Over-subscription guard: only the first worker_limit workers join
    // this job; latecomers go back to sleep until the next generation.
    if (job->entered.fetch_add(1, std::memory_order_relaxed) >= job->worker_limit) continue;
    work(*job);
    // The caller may be asleep in done_cv_ once unfinished hits zero;
    // the empty lock pairs the notify with its predicate check.
    if (job->unfinished.load(std::memory_order_acquire) == 0) {
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

}  // namespace strat::sim
