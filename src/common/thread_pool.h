// Fixed-size worker pool used by HERE's multithreaded seeder/checkpointer.
//
// The data plane (page memcpy into the replication stream) really runs on
// these threads, so the concurrent code paths the paper describes are
// exercised for real; only the *reported* durations come from the virtual
// time model.
//
// parallel_for splits its work into shards that the calling thread and
// queued helper tasks claim one at a time. The caller works instead of
// sleeping, so a batch never waits for a worker to wake up just to start; a
// shard runs exactly once, on whichever thread claims it.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/lock_rank.h"

namespace here::common {

class ThreadPool {
 public:
  // Spawns `threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  // Runs `fn(i)` for i in [0, n), partitioned statically into at most
  // size() contiguous ranges, and blocks until all complete. Exceptions
  // propagate to the caller.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  // One parallel_for call: `shards` shards, claimed in index order. Shared
  // with its helper tasks, which may start after the call has returned and
  // then find nothing left to claim. Guarded by mu_.
  struct Batch {
    const std::function<void(std::size_t)>* shard_fn = nullptr;
    std::size_t shards = 0;
    std::size_t next = 0;      // first unclaimed shard
    std::size_t unfinished = 0;
    std::exception_ptr error;  // first exception thrown by a shard
  };

  void worker_loop();
  // Claims and runs shards of `batch` until none is left unclaimed.
  void claim_and_run(Batch& batch);

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  RankedMutex mu_{LockRank::kThreadPoolQueue, "thread_pool.queue"};
  // Ranked CVs: waiters hold only mu_ (lost-wakeup guard). cv_ wakes workers
  // for queued tasks; batch_done_ wakes callers whose batch has finished.
  RankedConditionVariable cv_;
  RankedConditionVariable batch_done_;
  bool stopping_ = false;
};

}  // namespace here::common
