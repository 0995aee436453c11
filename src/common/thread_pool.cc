#include "common/thread_pool.h"

#include <algorithm>

namespace here::common {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt{std::move(task)};
  auto fut = pt.get_future();
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(pt));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<RankedMutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // exceptions captured into the packaged_task's future
  }
}

void ThreadPool::claim_and_run(Batch& batch) {
  for (;;) {
    std::size_t shard = 0;
    {
      std::lock_guard lock(mu_);
      if (batch.next == batch.shards) return;
      shard = batch.next++;
    }
    // A claimed shard keeps the caller waiting, so shard_fn is still alive.
    std::exception_ptr error;
    try {
      (*batch.shard_fn)(shard);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(mu_);
    if (error && !batch.error) batch.error = error;
    if (--batch.unfinished == 0) batch_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t parts = std::min(n, size());
  const std::function<void(std::size_t)> shard_fn = [&fn, n,
                                                     parts](std::size_t p) {
    const std::size_t end = n * (p + 1) / parts;
    for (std::size_t i = n * p / parts; i < end; ++i) fn(i);
  };
  auto batch = std::make_shared<Batch>();
  batch->shard_fn = &shard_fn;
  batch->shards = parts;
  batch->unfinished = parts;
  // The caller takes shards too, so one helper fewer than parts keeps the
  // parallelism at min(n, size()).
  const std::size_t helpers = parts - 1;
  if (helpers > 0) {
    {
      std::lock_guard lock(mu_);
      for (std::size_t h = 0; h < helpers; ++h) {
        tasks_.emplace([this, batch] { claim_and_run(*batch); });
      }
    }
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }
  claim_and_run(*batch);
  std::exception_ptr error;
  {
    std::unique_lock<RankedMutex> lock(mu_);
    batch_done_.wait(lock, [&batch] { return batch->unfinished == 0; });
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace here::common
