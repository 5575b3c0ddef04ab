#include "runtime/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/env.hpp"
#include "prof/prof.hpp"

namespace simdcv::runtime {

namespace detail {

namespace {
// Set for the lifetime of a worker's loop; lets parallel_for detect
// re-entrancy without a pool lookup.
thread_local bool tls_in_worker = false;
}  // namespace

class ThreadPool {
 public:
  ~ThreadPool() { stopWorkers(); }

  /// (Re)size the worker set. Joins existing workers first; the new set is
  /// spawned lazily by ensureStarted().
  void resize(int workers) {
    if (workers < 0) workers = 0;
    std::lock_guard<std::mutex> cfg(config_mu_);
    if (workers == target_workers_) return;
    stopLocked();
    target_workers_ = workers;
  }

  void ensureStarted() {
    std::lock_guard<std::mutex> cfg(config_mu_);
    startLocked();
  }

  int workerCount() {
    std::lock_guard<std::mutex> cfg(config_mu_);
    return target_workers_;
  }

  /// Deal `count` tasks round-robin across worker deques and wake everyone.
  /// Requires count > 0 and at least one worker.
  void submitBatch(std::function<void()>* tasks, std::size_t count) {
    {
      std::lock_guard<std::mutex> cfg(config_mu_);
      startLocked();
    }
    const std::size_t nw = workers_.size();
    if (nw == 0) {  // no workers configured: run inline as a last resort
      for (std::size_t i = 0; i < count; ++i) tasks[i]();
      return;
    }
    const std::size_t start = next_worker_.fetch_add(count, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      Worker& w = *workers_[(start + i) % nw];
      std::lock_guard<std::mutex> lk(w.mu);
      w.deque.push_back(std::move(tasks[i]));
    }
    bumpEpoch();
  }

  /// Single-task submission through the global injector.
  void run(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> cfg(config_mu_);
      startLocked();
    }
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      injector_.push_back(std::move(task));
    }
    bumpEpoch();
  }

  void stopWorkers() {
    std::lock_guard<std::mutex> cfg(config_mu_);
    stopLocked();
  }

  // Requires config_mu_ held.
  void stopLocked() {
    std::vector<std::thread> joining;
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      stop_ = true;
      ++epoch_;
    }
    park_cv_.notify_all();
    joining.swap(threads_);
    for (auto& t : joining) t.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      stop_ = false;
      injector_.clear();
    }
    started_ = false;
  }

  PoolStats stats() {
    PoolStats s;
    s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    // parks/unparks change under park_mu_; reading them under it too keeps
    // the pair consistent (unparks <= parks).
    std::lock_guard<std::mutex> lk(park_mu_);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.unparks = unparks_.load(std::memory_order_relaxed);
    return s;
  }

  void resetStats() {
    tasks_executed_.store(0, std::memory_order_relaxed);
    steals_.store(0, std::memory_order_relaxed);
    // A worker asleep now will count an unpark after the reset; count its
    // park after the reset too, so unparks never exceed parks.
    std::lock_guard<std::mutex> lk(park_mu_);
    parks_.store(parked_, std::memory_order_relaxed);
    unparks_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
  };

  // Requires config_mu_ held.
  void startLocked() {
    if (started_) return;
    workers_.reserve(static_cast<std::size_t>(target_workers_));
    for (int i = 0; i < target_workers_; ++i)
      workers_.push_back(std::make_unique<Worker>());
    for (int i = 0; i < target_workers_; ++i)
      threads_.emplace_back([this, i] { workerLoop(static_cast<std::size_t>(i)); });
    started_ = true;
  }

  void bumpEpoch() {
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      ++epoch_;
    }
    park_cv_.notify_all();
  }

  bool tryGetTask(std::size_t self, std::function<void()>& out) {
    // 1. own deque, front (submission order — bands stay cache-friendly).
    {
      Worker& w = *workers_[self];
      std::lock_guard<std::mutex> lk(w.mu);
      if (!w.deque.empty()) {
        out = std::move(w.deque.front());
        w.deque.pop_front();
        return true;
      }
    }
    // 2. global injector.
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      if (!injector_.empty()) {
        out = std::move(injector_.front());
        injector_.pop_front();
        return true;
      }
    }
    // 3. steal from the back of another worker's deque.
    const std::size_t nw = workers_.size();
    for (std::size_t k = 1; k < nw; ++k) {
      Worker& v = *workers_[(self + k) % nw];
      std::lock_guard<std::mutex> lk(v.mu);
      if (!v.deque.empty()) {
        out = std::move(v.deque.back());
        v.deque.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        prof::instant("pool.steal");
        return true;
      }
    }
    return false;
  }

  void workerLoop(std::size_t self) {
    tls_in_worker = true;
    std::function<void()> task;
    for (;;) {
      // Record the epoch before scanning so a submission racing with the
      // scan is seen by the wait predicate instead of being lost.
      std::uint64_t seen;
      {
        std::lock_guard<std::mutex> lk(park_mu_);
        if (stop_) break;
        seen = epoch_;
      }
      if (tryGetTask(self, task)) {
        // Count before running: the task's last act may release a waiter
        // (parallel_for's latch) that then reads poolStats(). Sequenced
        // before that release, the increment is visible to the waiter.
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        {
          SIMDCV_TRACE_SCOPE("pool.task");
          task();
        }
        task = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> lk(park_mu_);
      if (stop_) break;
      if (epoch_ == seen) {
        const std::uint64_t park_t0 = prof::enabled() ? prof::nowNs() : 0;
        parks_.fetch_add(1, std::memory_order_relaxed);
        ++parked_;
        park_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        --parked_;
        unparks_.fetch_add(1, std::memory_order_relaxed);
        if (park_t0 != 0)
          prof::detail::commitSpan("pool.park", prof::kNoPath, 0, park_t0,
                                   prof::nowNs());
      }
      if (stop_) break;
    }
  }

  std::mutex config_mu_;  // guards resize/start against each other
  int target_workers_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_worker_{0};

  std::mutex park_mu_;  // guards injector_, epoch_, stop_, parked_
  std::condition_variable park_cv_;
  std::deque<std::function<void()>> injector_;
  std::uint64_t epoch_ = 0;
  std::uint64_t parked_ = 0;  // workers currently waiting on park_cv_
  bool stop_ = false;

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> unparks_{0};
};

ThreadPool& globalPool() {
  static ThreadPool* pool = new ThreadPool();  // leaked: workers may outlive exit-time destructors
  return *pool;
}

int parseThreadCount(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return -1;  // unset: silent default
  long long v = 0;
  // Strict parse (no trailing junk, no overflow wrap): a malformed value is
  // worth one warning, not a silent fall-through to single-threaded.
  if (!platform::parseInt(text, 0, 4096, &v)) {
    std::fprintf(stderr,
                 "simdcv: ignoring SIMDCV_NUM_THREADS=\"%s\" (want an integer "
                 "in [0, 4096]); using default\n",
                 text);
    return -1;
  }
  return v == 0 ? maxHardwareThreads() : static_cast<int>(v);
}

void submitBatch(std::function<void()>* tasks, std::size_t count) {
  globalPool().submitBatch(tasks, count);
}

namespace {

// Effective thread count. -1 = not yet decided (consult env on first read).
std::atomic<int> g_num_threads{-1};

}  // namespace

}  // namespace detail

int maxHardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int getNumThreads() {
  int n = detail::g_num_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  const int env = detail::parseThreadCount(std::getenv("SIMDCV_NUM_THREADS"));
  n = env > 0 ? env : 1;  // default: single-threaded (paper protocol)
  // First decider wins; concurrent first reads agree because the env cannot
  // change between them.
  int expected = -1;
  detail::g_num_threads.compare_exchange_strong(expected, n,
                                                std::memory_order_relaxed);
  n = detail::g_num_threads.load(std::memory_order_relaxed);
  detail::globalPool().resize(n - 1);
  return n;
}

void setNumThreads(int n) {
  if (n <= 0) n = maxHardwareThreads();
  detail::g_num_threads.store(n, std::memory_order_relaxed);
  detail::globalPool().resize(n - 1);
}

bool inWorkerThread() noexcept { return detail::tls_in_worker; }

namespace {
thread_local bool tls_inline_parallel = false;
}  // namespace

bool setInlineParallel(bool on) noexcept {
  const bool prev = tls_inline_parallel;
  tls_inline_parallel = on;
  return prev;
}

bool inlineParallel() noexcept { return tls_inline_parallel; }

void warmupPool() {
  if (getNumThreads() > 1) detail::globalPool().ensureStarted();
}

PoolStats poolStats() { return detail::globalPool().stats(); }

void resetPoolStats() { detail::globalPool().resetStats(); }

void shutdownPool() { detail::globalPool().stopWorkers(); }

}  // namespace simdcv::runtime
