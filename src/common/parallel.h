/**
 * @file
 * The shared concurrency layer: a fixed-size thread pool.
 *
 * Every independent loop in the pipeline (suite simulation, CV folds,
 * ensemble bags, leave-one-workload-out rounds, the phases of one
 * large tree fit) runs through one
 * process-wide pool so thread creation is paid once and oversubscription
 * cannot happen. The contract that makes this safe to sprinkle through
 * the codebase:
 *
 *  - parallelFor(n, body) calls body(0..n-1) exactly once each, in
 *    unspecified order, and returns after every call finished. With a
 *    single thread (or n <= 1, or when already inside a pool task) it
 *    degenerates to the exact serial loop in the calling thread.
 *  - Determinism is the caller's job and the library's discipline:
 *    parallelized loops derive any randomness per index *before*
 *    dispatch (or from index-keyed seeds) and write results into
 *    index-addressed slots, so the output is identical for every
 *    thread count. Tests in tests/test_parallel.cc pin this down.
 *  - Nested parallelFor calls run serially inline rather than
 *    deadlocking, so a parallel learner (BaggedM5) inside a parallel
 *    fold is fine.
 *  - The first exception a body throws is rethrown on the caller once
 *    the loop has drained; unlike the serial path, remaining indices
 *    still run (the loop always completes before rethrowing).
 *  - A worker that runs out of work sleeps at once, unless a WarmScope
 *    is open: then it polls the queue for 200 us first, so loops issued
 *    back to back (the phases of one tree fit) keep their workers
 *    instead of waiting for them to wake.
 *
 * The global pool is sized by setGlobalThreadCount() (the CLI's
 * --threads flag) or the MTPERF_THREADS environment variable, falling
 * back to the hardware concurrency.
 */

#ifndef MTPERF_COMMON_PARALLEL_H_
#define MTPERF_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mtperf {

/**
 * Fixed-size pool of worker threads executing index-range loops.
 * A pool of size N uses N-1 workers plus the calling thread, so
 * ThreadPool(1) owns no threads at all and is purely serial.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency, including the caller; >= 1. */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (worker threads + the calling thread). */
    std::size_t threadCount() const { return threads_; }

    /**
     * Run body(i) for every i in [0, n), distributing indices
     * dynamically over the pool. Blocks until all calls completed;
     * rethrows the first exception any body raised.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** True when the current thread is executing a pool task. */
    static bool inParallelRegion();

    /**
     * While one is alive, a worker that runs out of work polls the
     * queue for up to 200 us before it sleeps, so the next loop of a
     * run of back-to-back loops finds it awake. Scopes nest. Only a
     * caller that issues such a run (one tree fit) opens one; every
     * other pool user keeps workers that sleep as soon as the queue is
     * empty.
     */
    class WarmScope
    {
      public:
        explicit WarmScope(ThreadPool &pool);
        ~WarmScope();

        WarmScope(const WarmScope &) = delete;
        WarmScope &operator=(const WarmScope &) = delete;

      private:
        ThreadPool &pool_;
    };

  private:
    struct Job;

    void workerLoop();
    static void runJob(const std::shared_ptr<Job> &job);

    std::size_t threads_;
    std::vector<std::thread> workers_;
    std::deque<std::shared_ptr<Job>> pending_;
    /** pending_.size(), which idle workers poll without the mutex. */
    std::atomic<std::size_t> queued_{0};
    /** Open WarmScopes; idle workers poll only while it is nonzero. */
    std::atomic<std::size_t> warmScopes_{0};
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

/**
 * Map [0, n) through @p fn on @p pool, collecting results in index
 * order. fn's result type must be default-constructible; each result
 * slot is written by exactly one task.
 */
template <typename Fn>
auto
parallelMap(ThreadPool &pool, std::size_t n, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
    pool.parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/** max(1, std::thread::hardware_concurrency()). */
std::size_t hardwareThreadCount();

/**
 * The thread count the global pool uses when nobody called
 * setGlobalThreadCount(): the MTPERF_THREADS environment variable if
 * set to a positive integer, otherwise the hardware concurrency.
 */
std::size_t defaultThreadCount();

/**
 * Resize the process-wide pool. @p threads == 0 restores the default
 * (MTPERF_THREADS or hardware concurrency). Not safe to call while a
 * parallel loop is in flight; the CLI calls it once at startup.
 */
void setGlobalThreadCount(std::size_t threads);

/** Current size of the process-wide pool. */
std::size_t globalThreadCount();

/** The lazily created process-wide pool. */
ThreadPool &globalPool();

} // namespace mtperf

#endif // MTPERF_COMMON_PARALLEL_H_
