#include "serve/batcher.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/thread_info.h"
#include "obs/trace.h"

namespace mtperf::serve {

Batcher::Batcher(Options options, ServeStats &stats)
    : options_(options), stats_(stats)
{
    mtperf_assert(options_.batchMaxRows > 0, "batchMaxRows must be >= 1");
    mtperf_assert(options_.queueMaxRows >= options_.batchMaxRows,
                  "queueMaxRows must be >= batchMaxRows");
    worker_ = std::thread([this] {
        obs::setCurrentThreadName("mtperf-batcher");
        workerLoop();
    });
}

Batcher::~Batcher()
{
    stop();
}

bool
Batcher::submit(PredictJob &&job)
{
    // Watermarked depth gauge: `mtperf top` reads value + max to show
    // current pressure and the worst the queue has ever been.
    static obs::Gauge &queueRows = obs::gauge("serve.queue_rows");
    const std::size_t rows = job.rowCount();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        if (queuedRows_ + rows > options_.queueMaxRows)
            return false;
        queuedRows_ += rows;
        queue_.push_back(std::move(job));
    }
    queueRows.addTracked(static_cast<std::int64_t>(rows));
    wake_.notify_one();
    return true;
}

void
Batcher::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && !worker_.joinable())
            return;
        stopping_ = true;
        paused_ = false;
    }
    wake_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

void
Batcher::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
Batcher::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    wake_.notify_all();
}

void
Batcher::workerLoop()
{
    while (true) {
        std::vector<PredictJob> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return (!paused_ && !queue_.empty()) ||
                       (stopping_ && queue_.empty());
            });
            if (stopping_ && queue_.empty())
                return;
            // Take whole jobs until the batch budget is spent; always
            // at least one so an outsized job still gets served.
            std::size_t batch_rows = 0;
            while (!queue_.empty()) {
                const std::size_t next = queue_.front().rowCount();
                if (!batch.empty() &&
                    batch_rows + next > options_.batchMaxRows)
                    break;
                batch_rows += next;
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
                queuedRows_ -= next;
            }
            static obs::Gauge &queueRows =
                obs::gauge("serve.queue_rows");
            queueRows.add(-static_cast<std::int64_t>(batch_rows));
        }
        runBatch(batch);
    }
}

namespace {

/** Jobs of one drained batch that target the same model. */
struct ModelGroup
{
    const ModelHolder *holder = nullptr;
    std::shared_ptr<const M5Prime> model; //!< snapshot for the batch
    std::size_t width = 0;
    std::vector<std::size_t> jobs; //!< indices into the batch
};

} // namespace

void
Batcher::runBatch(std::vector<PredictJob> &batch)
{
    obs::ScopedSpan span("serve",
                         "serve.batch jobs=" +
                             std::to_string(batch.size()));
    // Traced jobs get a per-request queue-wait span (enqueue on the
    // event-loop thread -> drain here); both ends are steady-clock
    // micros, the same clock traceNowMicros() reads.
    const std::int64_t drainedMicros = obs::traceNowMicros();
    if (obs::traceEnabled()) {
        for (const PredictJob &job : batch) {
            if (job.traceId == 0)
                continue;
            const std::int64_t enqueuedMicros =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    job.enqueued.time_since_epoch())
                    .count();
            obs::traceCompleteSpan(
                "serve",
                "serve.queue_wait trace=" + obs::traceIdHex(job.traceId),
                enqueuedMicros, drainedMicros);
        }
    }

    // Deadline admission: a job whose queue wait already exceeded the
    // deadline is shed before any model work — the client's RETRY
    // resubmission will find a shorter queue.
    const auto drained = std::chrono::steady_clock::now();
    std::vector<char> shed(batch.size(), 0);
    if (options_.deadlineUs > 0) {
        const auto deadline =
            std::chrono::microseconds(options_.deadlineUs);
        for (std::size_t j = 0; j < batch.size(); ++j) {
            if (drained - batch[j].enqueued > deadline) {
                shed[j] = 1;
                stats_.countDeadline();
            }
        }
    }

    // Group the surviving jobs by target model (first-appearance
    // order). Batches are small, so a linear holder scan beats a map.
    std::vector<ModelGroup> groups;
    std::vector<std::size_t> group_of(batch.size(), 0);
    for (std::size_t j = 0; j < batch.size(); ++j) {
        if (shed[j] != 0)
            continue;
        const ModelHolder *holder = batch[j].model;
        std::size_t g = 0;
        while (g < groups.size() && groups[g].holder != holder)
            ++g;
        if (g == groups.size()) {
            ModelGroup group;
            group.holder = holder;
            group.model = holder != nullptr ? holder->get() : nullptr;
            group.width = group.model != nullptr
                              ? group.model->schema().numAttributes()
                              : 0;
            groups.push_back(std::move(group));
        }
        group_of[j] = g;
        groups[g].jobs.push_back(j);
    }

    // One coalesced predictBatch per model group; per-job results are
    // sliced back out afterwards.
    std::vector<JobResult> results(batch.size());
    std::vector<char> completed(batch.size(), 0);
    std::size_t served_rows = 0;
    for (ModelGroup &group : groups) {
        if (group.model == nullptr)
            continue; // those jobs fail with "no model loaded" below
        std::vector<std::size_t> runnable;
        std::size_t total_rows = 0;
        for (std::size_t j : group.jobs) {
            if (batch[j].cols == group.width) {
                runnable.push_back(j);
                total_rows += batch[j].rowCount();
            }
        }
        std::vector<double> rows;
        rows.reserve(total_rows * group.width);
        for (std::size_t j : runnable)
            rows.insert(rows.end(), batch[j].rows.begin(),
                        batch[j].rows.end());

        std::vector<double> predictions(total_rows);
        std::string batch_error;
        const std::int64_t predictStart = obs::traceNowMicros();
        if (!runnable.empty()) {
            try {
                group.model->predictBatch(rows, group.width,
                                          predictions);
            } catch (const std::exception &e) {
                batch_error = e.what();
            }
        }
        if (obs::traceEnabled()) {
            // One serve.predict span per traced runnable job: the
            // group predicts them together, so they share the
            // interval.
            const std::int64_t predictEnd = obs::traceNowMicros();
            for (std::size_t j : runnable) {
                if (batch[j].traceId == 0)
                    continue;
                obs::traceCompleteSpan(
                    "serve",
                    "serve.predict trace=" +
                        obs::traceIdHex(batch[j].traceId),
                    predictStart, predictEnd);
            }
        }

        const auto now = std::chrono::steady_clock::now();
        std::size_t offset = 0;
        for (std::size_t j : runnable) {
            PredictJob &job = batch[j];
            JobResult &result = results[j];
            completed[j] = 1;
            const std::size_t n = job.rowCount();
            if (!batch_error.empty()) {
                offset += n;
                result.error = "prediction failed: " + batch_error;
                continue;
            }
            result.ok = true;
            result.response.predictions.assign(
                predictions.begin() +
                    static_cast<std::ptrdiff_t>(offset),
                predictions.begin() +
                    static_cast<std::ptrdiff_t>(offset + n));
            if (job.wantAttribution) {
                result.response.hasAttribution = true;
                result.response.leafIds.reserve(n);
                for (std::size_t r = 0; r < n; ++r) {
                    const std::span<const double> row(
                        job.rows.data() + r * group.width,
                        group.width);
                    result.response.leafIds.push_back(
                        static_cast<std::uint32_t>(
                            group.model->leafIndexFor(row)));
                }
            }
            offset += n;
            stats_.countPredict(n);
            stats_.recordLatency(
                std::chrono::duration<double, std::micro>(
                    now - job.enqueued)
                    .count());
            served_rows += n;
        }
    }

    // Complete every job exactly once: shed, failed or served.
    for (std::size_t j = 0; j < batch.size(); ++j) {
        PredictJob &job = batch[j];
        JobResult &result = results[j];
        if (shed[j] != 0) {
            result.shed = true;
        } else if (completed[j] == 0) {
            if (groups[group_of[j]].model == nullptr) {
                result.error = "no model loaded";
            } else {
                result.error =
                    "request has " + std::to_string(job.cols) +
                    " columns, model expects " +
                    std::to_string(groups[group_of[j]].width);
            }
        }
        if (!result.ok && !result.shed)
            stats_.countError();
        if (job.done)
            job.done(std::move(result));
    }

    // The other half of the serve.rows_predicted_vs_batched
    // invariant (see serve/stats.cc): rows counted as predicted above
    // must equal rows the batcher actually served.
    static obs::Counter &batches = obs::counter("serve.batches");
    static obs::Counter &batchRows = obs::counter("serve.batch_rows");
    batches.increment();
    batchRows.add(served_rows);
}

} // namespace mtperf::serve
