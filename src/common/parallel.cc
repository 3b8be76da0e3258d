#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include <chrono>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/thread_info.h"
#include "obs/trace.h"

namespace mtperf {

namespace {

/**
 * Depth of pool tasks on this thread. Nonzero means a parallelFor
 * from here must run inline: the pool's workers may all be busy with
 * (or waiting on) our enclosing loop, so queueing would deadlock.
 */
thread_local int poolTaskDepth = 0;

/**
 * Pool metrics. The queue-depth gauge counts queued job entries (one
 * per helper worker recruited, decremented as workers dequeue); its
 * watermark shows the deepest backlog the run ever built. Task
 * latency is recorded per claimed index — the granularity at which
 * the pool schedules — and only on the pooled path, so the serial
 * degenerate path stays exactly as cheap as a plain loop.
 */
obs::Counter &poolLoops = obs::counter("pool.parallel_loops");
obs::Counter &poolTasks = obs::counter("pool.tasks");
obs::Gauge &poolQueueDepth = obs::gauge("pool.queue_depth");
obs::Histogram &poolTaskMicros = obs::histogram("pool.task_micros");

double
elapsedMicros(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

/**
 * One parallelFor invocation. Indices are claimed with an atomic
 * counter (dynamic scheduling, good for uneven work like tree fits);
 * completion is tracked separately from claiming so the caller only
 * returns once every claimed index has actually finished. The job is
 * shared_ptr-held so a worker that dequeues it after the loop already
 * drained touches valid memory and exits immediately.
 */
struct ThreadPool::Job
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::exception_ptr error; //!< first exception, guarded by doneMutex
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads)
{
    workers_.reserve(threads_ - 1);
    for (std::size_t i = 0; i + 1 < threads_; ++i) {
        workers_.emplace_back([this, i] {
            obs::setCurrentThreadName("mtperf-worker-" +
                                      std::to_string(i + 1));
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !pending_.empty(); });
            if (stop_)
                return;
            job = pending_.front();
            pending_.pop_front();
        }
        poolQueueDepth.add(-1);
        runJob(job);
    }
}

void
ThreadPool::runJob(const std::shared_ptr<Job> &job)
{
    ++poolTaskDepth;
    while (true) {
        const std::size_t i = job->next.fetch_add(1);
        if (i >= job->n)
            break;
        const auto start = std::chrono::steady_clock::now();
        try {
            MTPERF_FAULT_POINT("pool.task.throw");
            (*job->body)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job->doneMutex);
            if (!job->error)
                job->error = std::current_exception();
        }
        poolTasks.increment();
        poolTaskMicros.record(elapsedMicros(start));
        if (job->completed.fetch_add(1) + 1 == job->n) {
            std::lock_guard<std::mutex> lock(job->doneMutex);
            job->doneCv.notify_all();
        }
    }
    --poolTaskDepth;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (threads_ <= 1 || n == 1 || poolTaskDepth > 0) {
        // The exact serial code path (also taken for nested loops).
        for (std::size_t i = 0; i < n; ++i) {
            MTPERF_FAULT_POINT("pool.task.throw");
            body(i);
        }
        return;
    }

    obs::ScopedSpan span("pool", "pool.for");
    poolLoops.increment();

    auto job = std::make_shared<Job>();
    job->n = n;
    job->body = &body;

    // One queue entry per worker is enough: each entry drains indices
    // until none remain.
    const std::size_t helpers = std::min(workers_.size(), n - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < helpers; ++i)
            pending_.push_back(job);
    }
    poolQueueDepth.add(static_cast<std::int64_t>(helpers));
    for (std::size_t i = 0; i < helpers; ++i)
        wake_.notify_one();

    runJob(job);

    std::unique_lock<std::mutex> lock(job->doneMutex);
    job->doneCv.wait(lock,
                     [&] { return job->completed.load() >= job->n; });
    if (job->error)
        std::rethrow_exception(job->error);
}

bool
ThreadPool::inParallelRegion()
{
    return poolTaskDepth > 0;
}

std::size_t
hardwareThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("MTPERF_THREADS")) {
        char *end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value > 0)
            return static_cast<std::size_t>(value);
        warn("ignoring invalid MTPERF_THREADS value '", env, "'");
    }
    return hardwareThreadCount();
}

namespace {

std::mutex globalPoolMutex;
std::unique_ptr<ThreadPool> globalPoolInstance;

} // namespace

void
setGlobalThreadCount(std::size_t threads)
{
    const std::size_t count = threads == 0 ? defaultThreadCount() : threads;
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (globalPoolInstance && globalPoolInstance->threadCount() == count)
        return;
    globalPoolInstance = std::make_unique<ThreadPool>(count);
}

std::size_t
globalThreadCount()
{
    return globalPool().threadCount();
}

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (!globalPoolInstance)
        globalPoolInstance = std::make_unique<ThreadPool>(
            defaultThreadCount());
    return *globalPoolInstance;
}

} // namespace mtperf
