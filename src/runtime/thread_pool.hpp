// Work-stealing thread pool backing simdcv's band-parallel kernel execution.
//
// Design:
//   - One process-global pool, created lazily the first time a parallel
//     region actually runs with more than one thread. Paper-reproduction
//     benchmarks therefore never pay pool cost: the effective thread count
//     defaults to 1 (see getNumThreads) and a 1-thread region never touches
//     the pool.
//   - N-1 worker threads for an effective thread count of N; the thread that
//     opens the parallel region executes one share itself.
//   - Each worker owns a deque. Batch submission deals tasks round-robin
//     across the worker deques; an owner pops from the front of its own
//     deque, an idle worker steals from the back of a victim's. A small
//     global injector queue takes single stray tasks. Idle workers park on a
//     condition variable (no busy spinning) and are woken by an epoch bump.
//   - Tasks must not throw (parallel_for wraps user bodies and captures the
//     first exception itself) and must not block on other tasks; nested
//     parallel_for calls inline their body instead of re-entering the pool,
//     which is what makes the no-blocking invariant hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace simdcv::runtime {

/// Monotonic counters describing pool activity since start (or the last
/// resetPoolStats). Cheap relaxed atomics; intended for observability, not
/// for synchronization. A task is counted before it runs, so a caller that
/// parallel_for has released sees all of its region's tasks; unparks never
/// exceed parks, even across a reset.
struct PoolStats {
  std::uint64_t tasks_executed = 0;  ///< tasks run by pool workers
  std::uint64_t steals = 0;          ///< tasks taken from another worker's deque
  std::uint64_t parks = 0;           ///< times a worker went to sleep
  std::uint64_t unparks = 0;         ///< times a sleeping worker was woken
};

/// Effective thread count for parallel regions (>= 1).
///
/// Resolution order, decided once on first use:
///   1. a prior setNumThreads(n) call,
///   2. the SIMDCV_NUM_THREADS environment variable (0 means "all cores"),
///   3. otherwise 1 — the library is single-threaded by default so the
///      paper's measurement protocol is reproduced untouched.
int getNumThreads();

/// Override the effective thread count. n <= 0 selects
/// std::thread::hardware_concurrency(). Takes effect for subsequent parallel
/// regions; must not be called concurrently with one.
void setNumThreads(int n);

/// std::thread::hardware_concurrency(), clamped to >= 1.
int maxHardwareThreads();

/// True when the calling thread is a pool worker (used by parallel_for to
/// run nested regions inline rather than deadlocking on the pool).
bool inWorkerThread() noexcept;

/// Per-thread switch forcing parallel_for on this thread to run its body
/// inline instead of forking bands to the pool. The serve engine sets this
/// on its request workers so cross-request concurrency does not multiply
/// with band parallelism (N request workers x M bands would oversubscribe
/// the cores). Returns the previous value so scopes can restore it.
bool setInlineParallel(bool on) noexcept;

/// Current value of the calling thread's inline-parallel switch.
bool inlineParallel() noexcept;

/// Spin up the pool's worker threads for the current thread count without
/// running any work. Benchmarks call this so thread creation and stack
/// first-touch land outside the measured window.
void warmupPool();

/// Snapshot / reset of the activity counters.
PoolStats poolStats();
void resetPoolStats();

/// Join all workers. The pool restarts lazily on next use; mainly for tests
/// and sanitizer runs that want a quiescent process.
void shutdownPool();

namespace detail {

/// Parse a SIMDCV_NUM_THREADS-style value: returns the thread count
/// (0 meaning "all cores" is resolved to maxHardwareThreads()), or -1 if the
/// string is missing/malformed/negative. Exposed for unit tests.
int parseThreadCount(const char* text) noexcept;

class ThreadPool;  // implementation in thread_pool.cpp

/// The process-global pool (created on first call).
ThreadPool& globalPool();

/// Move `count` tasks into the pool (round-robin across worker deques) and
/// wake the workers. Tasks must be noexcept-callable; parallel_for is the
/// intended caller and handles exception capture itself.
void submitBatch(std::function<void()>* tasks, std::size_t count);

}  // namespace detail

}  // namespace simdcv::runtime
