/**
 * @file
 * Epoll-driven connection multiplexing for the prediction server.
 *
 * One EventLoop is one I/O thread owning an epoll set, an eventfd for
 * cross-thread wakeups, and every connection adopted onto it. All
 * connection state (read assembly, write queue, idle clock) is
 * touched only from the loop thread, so there are no per-connection
 * locks; the server runs a small fixed set of loops and multiplexes
 * thousands of connections over them, where the previous design spent
 * one OS thread (and its stack) per connection.
 *
 * Reads are level-triggered: each readiness event reads the socket
 * once (up to 64 KiB) into the connection's FrameAssembler and hands
 * every completed CRC-checked frame to the onFrame handler on the
 * loop thread; a socket with more to read is simply reported again,
 * after the loop has served the other ready connections. The handler
 * replies with send(), also on the loop thread: it writes directly
 * and queues only what the kernel refuses (registering EPOLLOUT until
 * the queue drains). Because a connection's replies all funnel
 * through its loop's queue, replies keep request order per
 * connection without any write lock. While a connection's unsent
 * replies exceed kMaxQueuedReplyBytes the loop stops reading it, so
 * a client that pipelines requests without reading the replies is
 * held back by TCP flow control instead of growing the queue.
 *
 * A loop may also own the listening socket: accepted sockets are
 * passed to the onAccept handler, which places them on a loop
 * (typically round-robin across all loops) via adopt(). adopt() is
 * the one operation another thread may call: it queues the socket
 * and signals the eventfd.
 *
 * The process-wide `serve.connections_active` gauge tracks open
 * connections across every loop — incremented on adopt, decremented
 * on close — so a scrape shows both current load and the high-water
 * mark, and tests can assert it returns to zero when clients
 * disconnect (connection-leak detector).
 */

#ifndef MTPERF_SERVE_EVENT_LOOP_H_
#define MTPERF_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace mtperf::serve {

class EventLoop;

/** One multiplexed connection. Loop-thread access only. */
class Conn
{
  public:
    EventLoop &loop() const { return *loop_; }

  private:
    friend class EventLoop;

    net::Socket sock_;
    EventLoop *loop_ = nullptr;
    std::uint64_t id_ = 0;
    FrameAssembler assembler_;
    std::deque<std::string> writeQueue_;
    std::size_t writeOffset_ = 0; //!< into writeQueue_.front()
    std::size_t queuedBytes_ = 0; //!< unsent bytes in writeQueue_
    bool wantRead_ = true;   //!< registered for EPOLLIN
    bool wantWrite_ = false; //!< registered for EPOLLOUT
    bool closing_ = false;   //!< close once the write queue drains
    std::chrono::steady_clock::time_point lastActivity_;
};

/** One epoll I/O thread multiplexing many connections. */
class EventLoop
{
  public:
    /** Unsent reply bytes above which a connection is not read. */
    static constexpr std::size_t kMaxQueuedReplyBytes = 1u << 20;

    struct Options
    {
        int pollIntervalMs = 50; //!< tick cadence (stop, idle sweep)
        int idleTimeoutMs = 0;   //!< drop idle connections (0 = never)
        std::string name = "io"; //!< thread name suffix
    };

    struct Handlers
    {
        /** A complete frame arrived. Runs on the loop thread. */
        std::function<void(Conn &, Frame &&)> onFrame;
        /**
         * The byte stream is damaged (bad magic/CRC/length) or a
         * fault was injected. Reply if possible (the loop closes the
         * connection after the write queue drains). Loop thread.
         */
        std::function<void(Conn &, const std::string &)>
            onProtocolError;
        /**
         * The listener accepted a socket; place it on a loop via
         * adopt(). Only called on the loop that owns the listener.
         */
        std::function<void(net::Socket &&)> onAccept;
        /** Every pollIntervalMs on the loop thread. */
        std::function<void()> onTick;
    };

    EventLoop(Options options, Handlers handlers);
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Start the loop thread. @p listener (optional, not owned) makes
     * this loop the accepting loop; it must outlive the loop.
     */
    void start(const net::Socket *listener = nullptr);

    /** Flush what the kernel will take, close every connection,
     *  stop the thread. Idempotent. */
    void stop();

    /** Adopt @p sock as a new connection (any thread). */
    void adopt(net::Socket &&sock);

    /**
     * Queue @p bytes on @p conn and flush what the kernel will take.
     * Dropped silently when the connection is already closed. With
     * @p close_after, the connection closes once its write queue
     * fully drains. Loop thread only (the handlers run there).
     */
    void send(Conn &conn, std::string &&bytes, bool close_after = false);

    /** Open connections on this loop right now. */
    std::size_t numConnections() const
    {
        return numConns_.load(std::memory_order_relaxed);
    }

  private:
    void run(const net::Socket *listener);
    void processPending();
    void adoptOnLoop(net::Socket &&sock);
    void acceptReady(const net::Socket &listener);
    void readReady(Conn &conn);
    void flushWrites(Conn &conn);
    /** Register the EPOLLIN/EPOLLOUT interest @p conn's write queue
     *  calls for, when it differs from the registered one. */
    void updateInterest(Conn &conn);
    void closeConn(Conn &conn);
    void sweepIdle();
    bool onLoopThread() const;

    Options options_;
    Handlers handlers_;
    obs::Gauge &activeGauge_; //!< serve.connections_active

    net::Poller poller_;
    net::WakeupFd wake_;
    /** Ordered so the stop/idle sweeps iterate deterministically. */
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 2; //!< 0 = wakeup, 1 = listener
    /** Closed this round; erased from conns_ at the iteration edge
     *  so PollEvents referencing them stay safe to look up. */
    std::vector<std::uint64_t> dead_;
    std::atomic<std::size_t> numConns_{0};

    std::mutex pendingMutex_;
    std::vector<net::Socket> pending_; //!< adopted, not yet on the loop
    std::atomic<bool> stopping_{false};

    std::thread thread_;
    std::atomic<bool> started_{false};
    bool joined_ = false;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_EVENT_LOOP_H_
