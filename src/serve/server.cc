#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <span>
#include <sstream>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mtperf::serve {

namespace {

/** The key legacy (unkeyed) PREDICT requests resolve to. */
constexpr const char *kDefaultModelKey = "default";

std::shared_ptr<const M5Prime>
loadModel(const std::string &path)
{
    return std::make_shared<const M5Prime>(M5Prime::loadFile(path));
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      endpoint_(net::parseEndpoint(options_.listen, options_.port)),
      stats_(options_.slo)
{
    mtperf_assert(options_.ioThreads >= 1,
                  "need at least one I/O thread");

    addModel(kDefaultModelKey, options_.modelPath);
    for (const auto &[key, path] : options_.models)
        addModel(key, path);

    if (endpoint_.unixDomain) {
        listener_ = net::listenUnix(endpoint_.path);
    } else {
        listener_ =
            net::listenTcp(endpoint_.host, endpoint_.port, &boundPort_);
        endpoint_.port = boundPort_;
    }

    if (options_.metricsHttp) {
        obs::MetricsHttpServer::Options metrics_options;
        metrics_options.host = options_.metricsHost;
        metrics_options.port = options_.metricsPort;
        metricsServer_ = std::make_unique<obs::MetricsHttpServer>(
            metrics_options);
    }
}

Server::~Server()
{
    requestStop();
    wait();
    if (endpoint_.unixDomain)
        ::unlink(endpoint_.path.c_str());
}

void
Server::addModel(const std::string &key, const std::string &path)
{
    mtperf_assert(!key.empty() && key.size() <= kMaxModelKey,
                  "model key must be 1..kMaxModelKey bytes");
    mtperf_assert(findModel(key) == nullptr, "model key '", key,
                  "' registered twice");
    ModelEntry &entry = models_.emplace_back();
    entry.key = key;
    entry.path = path;
    entry.holder.set(loadModel(path));
}

const Server::ModelEntry *
Server::findModel(const std::string &key) const
{
    if (key.empty())
        return &models_.front();
    for (const ModelEntry &entry : models_) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

std::string
Server::endpoint() const
{
    return endpoint_.display();
}

std::uint16_t
Server::metricsPort() const
{
    return metricsServer_ ? metricsServer_->port() : 0;
}

StatsSnapshot
Server::stats() const
{
    StatsSnapshot s = stats_.snapshot();
    s.models = models_.size();
    return s;
}

void
Server::start()
{
    mtperf_assert(!started_, "Server::start() called twice");
    started_ = true;
    if (metricsServer_)
        metricsServer_->start();

    loops_.reserve(options_.ioThreads);
    for (std::size_t i = 0; i < options_.ioThreads; ++i) {
        EventLoop::Options loop_options;
        loop_options.pollIntervalMs = options_.pollIntervalMs;
        loop_options.idleTimeoutMs = options_.idleTimeoutMs;
        loop_options.name = "io-" + std::to_string(i);
        EventLoop::Handlers handlers;
        handlers.onFrame = [this](Conn &conn, Frame &&frame) {
            stats_.countRequest();
            dispatch(conn, std::move(frame));
        };
        handlers.onProtocolError = [this](Conn &conn,
                                          const std::string &message) {
            onProtocolError(conn, message);
        };
        if (i == 0) {
            handlers.onAccept = [this](net::Socket &&sock) {
                onAccept(std::move(sock));
            };
            // Fold the SLO window into the serve.slo_* gauges every
            // tick, so a scrape sees it decay after traffic stops.
            handlers.onTick = [this] { stats_.snapshot(); };
        }
        loops_.push_back(std::make_unique<EventLoop>(
            loop_options, std::move(handlers)));
    }
    for (std::size_t i = 0; i < loops_.size(); ++i)
        loops_[i]->start(i == 0 ? &listener_ : nullptr);
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_relaxed);
}

void
Server::requestReload()
{
    reloadRequested_.store(true, std::memory_order_relaxed);
}

bool
Server::reloadNow(std::string *error)
{
    // One reload at a time; predictions are not blocked (in-flight
    // predictions hold their own shared_ptr snapshot of each model).
    std::lock_guard<std::mutex> lock(reloadMutex_);
    std::string messages;
    for (ModelEntry &entry : models_) {
        try {
            entry.holder.set(loadModel(entry.path));
            informAs("serve", "reloaded model '", entry.key,
                     "' from ", entry.path);
        } catch (const std::exception &e) {
            warnAs("serve", "reload of model '", entry.key,
                   "' failed, keeping the serving model: ", e.what());
            if (!messages.empty())
                messages += "; ";
            messages += entry.key;
            messages += ": ";
            messages += e.what();
        }
    }
    const bool ok = messages.empty();
    stats_.countReload(ok);
    if (!ok && error != nullptr)
        *error = messages;
    return ok;
}

void
Server::wait()
{
    if (joined_)
        return;
    if (!started_) {
        joined_ = true;
        if (metricsServer_)
            metricsServer_->stop();
        return;
    }

    // The loops carry the traffic; this thread only watches for stop
    // and SIGHUP-style reload requests.
    while (!stopping_.load(std::memory_order_relaxed)) {
        if (reloadRequested_.exchange(false, std::memory_order_relaxed))
            reloadNow(nullptr);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.pollIntervalMs));
    }

    // Each loop nurses its queued replies out, then closes every
    // connection.
    for (auto &loop : loops_)
        loop->stop();
    listener_.close();
    if (metricsServer_)
        metricsServer_->stop();
    joined_ = true;
}

void
Server::onAccept(net::Socket &&sock)
{
    try {
        MTPERF_FAULT_POINT("serve.accept");
    } catch (const std::exception &e) {
        // A fault-injected accept drops that one connection; the
        // server keeps serving.
        stats_.countError();
        warnAs("serve", "accept failed: ", e.what());
        return;
    }
    stats_.countConnection();
    const std::size_t next =
        nextLoop_.fetch_add(1, std::memory_order_relaxed);
    loops_[next % loops_.size()]->adopt(std::move(sock));
}

void
Server::replyOn(Conn &conn, const Frame &frame, bool close_after)
{
    conn.loop().send(conn, encodeFrame(frame), close_after);
}

void
Server::onProtocolError(Conn &conn, const std::string &message)
{
    stats_.countError();
    replyOn(conn,
            Frame{kMsgError, 0, encodeError({kErrBadRequest, message})});
}

void
Server::dispatch(Conn &conn, Frame &&request)
{
    switch (request.type) {
    case kMsgPredict: {
        const auto received = std::chrono::steady_clock::now();
        PredictRequest predict;
        try {
            predict = decodePredictRequest(request.payload);
        } catch (const std::exception &e) {
            stats_.countError();
            replyOn(conn,
                    Frame{kMsgError, request.id,
                          encodeError({kErrBadRequest, e.what()})});
            return;
        }
        const ModelEntry *entry = findModel(predict.modelKey);
        if (entry == nullptr) {
            stats_.countError();
            replyOn(conn,
                    Frame{kMsgError, request.id,
                          encodeError({kErrModel,
                                       "unknown model key '" +
                                           predict.modelKey + "'"})});
            return;
        }
        // A snapshot: a concurrent RELOAD swaps the holder, never the
        // model this prediction runs on.
        const std::shared_ptr<const M5Prime> model = entry->holder.get();
        predictAndReply(conn, request.id, predict, *model, received);
        return;
    }
    case kMsgInfo:
        replyOn(conn,
                Frame{static_cast<MsgType>(kMsgInfo | kMsgReplyBit),
                      request.id, infoText()});
        return;
    case kMsgReload: {
        std::string error;
        if (reloadNow(&error)) {
            replyOn(conn, Frame{static_cast<MsgType>(kMsgReload |
                                                     kMsgReplyBit),
                                request.id, {}});
        } else {
            replyOn(conn, Frame{kMsgError, request.id,
                                encodeError({kErrModel, error})});
        }
        return;
    }
    case kMsgShutdown:
        replyOn(conn,
                Frame{static_cast<MsgType>(kMsgShutdown | kMsgReplyBit),
                      request.id, {}},
                /*close_after=*/true);
        requestStop();
        return;
    default:
        stats_.countError();
        replyOn(conn,
                Frame{kMsgError, request.id,
                      encodeError({kErrBadRequest,
                                   "unknown request type " +
                                       std::to_string(request.type)})});
        return;
    }
}

void
Server::predictAndReply(Conn &conn, std::uint32_t id,
                        const PredictRequest &request,
                        const M5Prime &model,
                        std::chrono::steady_clock::time_point received)
{
    const std::size_t width = model.schema().numAttributes();
    const auto fail = [&](const std::string &message) {
        stats_.countError();
        replyOn(conn, Frame{kMsgError, id,
                            encodeError({kErrBadRequest, message})});
    };
    if (request.cols != width) {
        fail("request has " + std::to_string(request.cols) +
             " columns, model expects " + std::to_string(width));
        return;
    }

    const bool traced = request.traceId != 0 && obs::traceEnabled();
    const std::int64_t predictStart = traced ? obs::traceNowMicros() : 0;
    PredictResponse response;
    response.predictions.resize(request.rows);
    try {
        model.predictBatch(request.values, width, response.predictions);
    } catch (const std::exception &e) {
        fail(std::string("prediction failed: ") + e.what());
        return;
    }
    if (request.wantAttribution) {
        response.hasAttribution = true;
        response.leafIds.reserve(request.rows);
        for (std::size_t r = 0; r < request.rows; ++r) {
            const std::span<const double> row(
                request.values.data() + r * width, width);
            response.leafIds.push_back(
                static_cast<std::uint32_t>(model.leafIndexFor(row)));
        }
    }

    // A request is one batch. Its rows are the other half of the
    // serve.rows_predicted_vs_batched invariant (see serve/stats.cc).
    static obs::Counter &batches = obs::counter("serve.batches");
    static obs::Counter &batchRows = obs::counter("serve.batch_rows");
    stats_.countPredict(request.rows);
    batches.increment();
    batchRows.add(request.rows);
    stats_.recordLatency(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - received)
                             .count());

    const std::int64_t replyStart = traced ? obs::traceNowMicros() : 0;
    replyOn(conn,
            Frame{static_cast<MsgType>(kMsgPredict | kMsgReplyBit), id,
                  encodePredictResponse(response)});
    if (traced) {
        const std::string hex = obs::traceIdHex(request.traceId);
        obs::traceCompleteSpan("serve", "serve.predict trace=" + hex,
                               predictStart, replyStart);
        obs::traceCompleteSpan("serve", "serve.reply trace=" + hex,
                               replyStart, obs::traceNowMicros());
    }
}

std::string
Server::infoText() const
{
    const std::shared_ptr<const M5Prime> model =
        models_.front().holder.get();
    std::ostringstream os;
    os << "build " << obs::buildSummary() << "\n";
    os << "model M5Prime\n";
    os << "source " << options_.modelPath << "\n";
    os << "models " << models_.size();
    for (const ModelEntry &entry : models_)
        os << " " << entry.key;
    os << "\n";
    const Schema &schema = model->schema();
    os << "attributes " << schema.numAttributes();
    for (std::size_t a = 0; a < schema.numAttributes(); ++a)
        os << " " << schema.attributeName(a);
    os << "\n";
    os << "target " << schema.targetName() << "\n";
    os << "leaves " << model->numLeaves() << "\n";
    os << "--- tree ---\n";
    os << model->toString();
    return os.str();
}

} // namespace mtperf::serve
