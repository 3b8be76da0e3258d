/**
 * @file
 * Request batching with bounded queueing, deadlines and explicit
 * backpressure.
 *
 * Event-loop threads convert PREDICT requests into jobs and submit
 * them here; the batcher thread drains its queue, groups the drained
 * jobs by target model, coalesces each group's rows into
 * one contiguous block, runs the model's predictBatch — which fans
 * out over the shared `common/parallel` pool — and completes each
 * job's callback. Batching is what amortizes the per-request
 * virtual-call and scheduling cost into >100k rows/sec on loopback.
 *
 * Admission control has two layers:
 *
 *  - The queue is bounded by queueMaxRows *rows* (not jobs — a
 *    thousand one-row requests and one thousand-row request cost the
 *    same memory): when a submit would exceed it, submit() returns
 *    false and the connection replies RETRY instead of letting the
 *    server fall over. A job larger than the whole queue is rejected
 *    outright.
 *  - With deadlineUs > 0, a job that waited in the queue longer than
 *    its deadline is shed at drain time (JobResult::shed, the caller
 *    replies RETRY): under overload the server does bounded recent
 *    work instead of unbounded stale work, so p99 stays a function of
 *    the deadline rather than of the backlog.
 *
 * Hot reload swaps a ModelHolder's shared_ptr atomically; in-flight
 * batches finish on the model snapshot they started with, so a RELOAD
 * never tears predictions mid-batch.
 */

#ifndef MTPERF_SERVE_BATCHER_H_
#define MTPERF_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ml/tree/m5prime.h"
#include "serve/protocol.h"
#include "serve/stats.h"

namespace mtperf::serve {

/**
 * One served model, swappable while serving. get() hands out a
 * shared_ptr copy, so a reader keeps its model alive across a
 * concurrent set() — the old model is destroyed only when the last
 * in-flight batch using it completes.
 */
class ModelHolder
{
  public:
    ModelHolder() = default;
    explicit ModelHolder(std::shared_ptr<const M5Prime> model)
        : model_(std::move(model))
    {}

    std::shared_ptr<const M5Prime>
    get() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return model_;
    }

    void
    set(std::shared_ptr<const M5Prime> model)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        model_ = std::move(model);
    }

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const M5Prime> model_;
};

/** How a completed (or failed) job reports back. */
struct JobResult
{
    bool ok = false;
    /** Shed by admission control (deadline); caller replies RETRY. */
    bool shed = false;
    PredictResponse response; //!< valid when ok
    std::string error;        //!< cause when !ok && !shed
};

/** One queued prediction job (the rows of one PREDICT request). */
struct PredictJob
{
    /** Target model; must outlive the batcher. null = none loaded. */
    const ModelHolder *model = nullptr;
    std::vector<double> rows; //!< flat, rowCount x cols
    std::uint32_t cols = 0;
    bool wantAttribution = false;
    std::uint64_t traceId = 0; //!< client-assigned; 0 = untraced
    std::function<void(JobResult &&)> done;
    std::chrono::steady_clock::time_point enqueued;

    std::size_t
    rowCount() const
    {
        return cols == 0 ? 0 : rows.size() / cols;
    }
};

/** Bounded-queue batching executor (thread `mtperf-batcher`). */
class Batcher
{
  public:
    struct Options
    {
        std::size_t batchMaxRows = 256;
        std::size_t queueMaxRows = 8192;
        /** Shed jobs older than this at drain time (0 = never). */
        std::uint64_t deadlineUs = 0;
    };

    /** Starts the batcher thread. @p stats must outlive it. */
    Batcher(Options options, ServeStats &stats);
    ~Batcher();

    Batcher(const Batcher &) = delete;
    Batcher &operator=(const Batcher &) = delete;

    /**
     * Enqueue @p job. @return false (job untouched, caller replies
     * RETRY) when the queue is full or the job alone exceeds it.
     */
    bool submit(PredictJob &&job);

    /** Drain every queued job, then stop the batcher thread. */
    void stop();

    /**
     * @name Test hooks
     * pause() holds the batcher thread before its next batch so tests
     * can fill the queue deterministically; resume() releases it.
     */
    ///@{
    void pause();
    void resume();
    ///@}

  private:
    void workerLoop();
    void runBatch(std::vector<PredictJob> &batch);

    Options options_;
    ServeStats &stats_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<PredictJob> queue_;
    std::size_t queuedRows_ = 0;
    bool stopping_ = false;
    bool paused_ = false;
    std::thread worker_;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_BATCHER_H_
