/**
 * @file
 * The mtperf prediction server.
 *
 * A small fixed set of epoll event-loop threads (serve/event_loop.h)
 * multiplexes every client connection; loop 0 owns the listening
 * socket (TCP or Unix-domain, chosen by the listen address) and deals
 * accepted connections round-robin across the loops. The server keeps
 * a registry of models by key ("default" for `modelPath`, then
 * `models` in order). Each PREDICT runs to completion on the loop
 * that read it: decode, one predictBatch on the keyed model (which
 * fans out over the shared thread pool when the request is large),
 * encode, write. A request crosses no thread, and a loop reads no
 * further frames until it has answered the ones it read, so a client
 * that reads its replies meets overload in the socket buffers, where
 * TCP flow control slows it.
 * The lifecycle:
 *
 *   Server server(options);   // loads the models, binds, listens
 *   server.start();           // spawns the I/O loops
 *   server.wait();            // blocks until SHUTDOWN/requestStop()
 *
 * Hot reload (RELOAD request or requestReload(), wired to SIGHUP by
 * the CLI) re-reads every model file and swaps each in atomically via
 * shared_ptr, one entry at a time; when a replacement is corrupt that
 * entry's old model keeps serving and the reloader gets the loader's
 * error message. Stopping is graceful: each loop flushes the replies
 * it has queued, connections close, and a final stats snapshot
 * remains readable.
 *
 * Fault sites `serve.accept` and `serve.read` (common/fault) let
 * tests rehearse a dying accept path and mid-frame connection drops
 * deterministically.
 */

#ifndef MTPERF_SERVE_SERVER_H_
#define MTPERF_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "ml/tree/m5prime.h"
#include "obs/metrics_http.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/stats.h"

namespace mtperf::serve {

/**
 * One served model, swappable while serving. get() hands out a
 * shared_ptr copy, so a reader keeps its model alive across a
 * concurrent set() — the old model is destroyed only when the last
 * in-flight prediction using it completes.
 */
class ModelHolder
{
  public:
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

/** Server configuration (validated eagerly by the CLI). */
struct ServerOptions
{
    std::string modelPath;           //!< the "default"-keyed model
    /** Additional keyed models: (key, checksummed model file). */
    std::vector<std::pair<std::string, std::string>> models;
    std::string listen = "127.0.0.1"; //!< HOST, HOST:PORT or unix:PATH
    std::uint16_t port = 0;           //!< TCP port when listen has none
    std::size_t ioThreads = 1;        //!< epoll event loops
    int pollIntervalMs = 50;          //!< stop/reload responsiveness
    int idleTimeoutMs = 0;            //!< drop idle connections (0 = never)

    /** Prometheus scrape listener (a second, HTTP socket). */
    bool metricsHttp = false;
    std::string metricsHost = "127.0.0.1";
    std::uint16_t metricsPort = 0;    //!< 0 picks an ephemeral port

    SloOptions slo;                   //!< sliding-window SLO policy
};

/** A running prediction server. */
class Server
{
  public:
    /**
     * Load the models, bind and listen. @throw FatalError when a
     * model is unreadable/corrupt or the address cannot be bound.
     */
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the I/O loops. */
    void start();

    /** Block until the server stopped, then release every thread. */
    void wait();

    /** Ask the server to stop; wait() returns soon after. */
    void requestStop();

    /** Ask for a model reload at the next wait() tick (SIGHUP). */
    void requestReload();

    /**
     * Reload every model file now. @return true when all succeed; a
     * failed entry keeps its old model serving and @p error (if
     * non-null) receives the loader's message(s).
     */
    bool reloadNow(std::string *error);

    /** The bound TCP port (0 for Unix-domain sockets). */
    std::uint16_t port() const { return boundPort_; }

    /** The /metrics scrape port (0 when metricsHttp is off). */
    std::uint16_t metricsPort() const;

    /** Printable bound address. */
    std::string endpoint() const;

    StatsSnapshot stats() const;

  private:
    /** One registered model: key, source path, swappable holder. */
    struct ModelEntry
    {
        std::string key;
        std::string path; //!< file the model (re)loads from
        ModelHolder holder;
    };

    void addModel(const std::string &key, const std::string &path);
    /** The entry for @p key (empty = the default), or nullptr. */
    const ModelEntry *findModel(const std::string &key) const;
    void onAccept(net::Socket &&sock);
    void dispatch(Conn &conn, Frame &&request);
    /** Run one PREDICT to completion on the calling loop thread. */
    void predictAndReply(Conn &conn, std::uint32_t id,
                         const PredictRequest &request,
                         const M5Prime &model,
                         std::chrono::steady_clock::time_point received);
    void onProtocolError(Conn &conn, const std::string &message);
    std::string infoText() const;
    static void replyOn(Conn &conn, const Frame &frame,
                        bool close_after = false);

    ServerOptions options_;
    net::Endpoint endpoint_;
    std::uint16_t boundPort_ = 0;
    net::Socket listener_;

    ServeStats stats_;
    /** Registration order, default first. A deque: a ModelHolder
     *  cannot move (it owns a mutex). */
    std::deque<ModelEntry> models_;
    std::vector<std::unique_ptr<EventLoop>> loops_;
    std::atomic<std::size_t> nextLoop_{0}; //!< round-robin dealing
    std::unique_ptr<obs::MetricsHttpServer> metricsServer_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> reloadRequested_{false};
    std::mutex reloadMutex_;

    bool started_ = false;
    bool joined_ = false;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_SERVER_H_
