#include "common/thread_pool.h"

#include <utility>

namespace rlqvo {

namespace {
thread_local int t_worker_index = -1;
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(uint32_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task, const void* group) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(QueuedTask{std::move(task), group});
    // pending_ covers the task from enqueue to completion. A parent task
    // submitting subtasks therefore always overlaps them: pending_ cannot
    // touch zero between the parent's submission and the subtask's finish,
    // so a concurrent Wait stays blocked until the whole tree is done.
    ++pending_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (pending_ != 0) all_done_.Wait(&mu_);
}

void ThreadPool::FinishTask() {
  MutexLock lock(&mu_);
  if (--pending_ == 0) all_done_.NotifyAll();
}

bool ThreadPool::TryRunOneTask(const void* group) {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    if (group == nullptr) {
      if (queue_.empty()) return false;
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    } else {
      // Scan for the first task of the caller's group; a parent drains its
      // own subtasks without pulling unrelated queued work onto its stack.
      auto it = queue_.begin();
      while (it != queue_.end() && it->group != group) ++it;
      if (it == queue_.end()) return false;
      task = std::move(it->fn);
      queue_.erase(it);
    }
  }
  task();
  FinishTask();
  return true;
}

int ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

const ThreadPool* ThreadPool::CurrentPool() { return t_worker_pool; }

void ThreadPool::WorkerLoop(uint32_t index) {
  t_worker_index = static_cast<int>(index);
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      if (!shutdown_ && queue_.empty()) {
        idle_workers_.fetch_add(1, std::memory_order_relaxed);
        while (!shutdown_ && queue_.empty()) work_available_.Wait(&mu_);
        idle_workers_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    }
    task();
    FinishTask();
  }
}

}  // namespace rlqvo
