#include "serve/event_loop.h"

#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/thread_info.h"

namespace mtperf::serve {

namespace {

/** Bytes read per readiness event; frames larger than this just take
 *  turns. */
constexpr std::size_t kReadChunk = 64 * 1024;

/** How long stop() keeps nursing unflushed replies per connection. */
constexpr int kStopFlushAttempts = 5;
constexpr int kStopFlushWaitMs = 50;

} // namespace

EventLoop::EventLoop(Options options, Handlers handlers)
    : options_(std::move(options)), handlers_(std::move(handlers)),
      activeGauge_(obs::gauge("serve.connections_active"))
{
    mtperf_assert(options_.pollIntervalMs > 0,
                  "pollIntervalMs must be >= 1");
}

EventLoop::~EventLoop()
{
    stop();
}

void
EventLoop::start(const net::Socket *listener)
{
    mtperf_assert(!started_.load(std::memory_order_relaxed),
                  "EventLoop::start() called twice");
    started_.store(true, std::memory_order_relaxed);
    thread_ = std::thread([this, listener] {
        obs::setCurrentThreadName("mtperf-" + options_.name);
        run(listener);
    });
}

void
EventLoop::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (!started_.load(std::memory_order_relaxed) || joined_)
        return;
    wake_.signal();
    if (thread_.joinable())
        thread_.join();
    joined_ = true;
}

void
EventLoop::adopt(net::Socket &&sock)
{
    if (onLoopThread()) {
        adoptOnLoop(std::move(sock));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        pending_.push_back(std::move(sock));
    }
    wake_.signal();
}

void
EventLoop::send(Conn &conn, std::string &&bytes, bool close_after)
{
    mtperf_assert(onLoopThread(), "EventLoop::send() off the loop thread");
    if (!conn.sock_.valid())
        return; // connection already gone; reply dropped
    if (!bytes.empty()) {
        conn.queuedBytes_ += bytes.size();
        conn.writeQueue_.push_back(std::move(bytes));
    }
    if (close_after)
        conn.closing_ = true;
    flushWrites(conn);
}

bool
EventLoop::onLoopThread() const
{
    return started_.load(std::memory_order_relaxed) &&
           thread_.get_id() == std::this_thread::get_id();
}

void
EventLoop::run(const net::Socket *listener)
{
    poller_.add(wake_.fd(), 0);
    if (listener != nullptr) {
        // The accept drain loop relies on EAGAIN to stop; a blocking
        // listener would park the whole loop inside accept().
        net::setNonBlocking(listener->fd());
        poller_.add(listener->fd(), 1);
    }

    using clock = std::chrono::steady_clock;
    const auto tick = std::chrono::milliseconds(options_.pollIntervalMs);
    auto last_tick = clock::now();
    std::vector<net::PollEvent> events;

    while (!stopping_.load(std::memory_order_relaxed)) {
        poller_.wait(events, options_.pollIntervalMs);
        for (const net::PollEvent &ev : events) {
            if (ev.tag == 0) {
                wake_.drain();
                continue; // pending ops run below
            }
            if (ev.tag == 1) {
                if (listener != nullptr && ev.readable)
                    acceptReady(*listener);
                continue;
            }
            auto it = conns_.find(ev.tag);
            if (it == conns_.end() || !it->second->sock_.valid())
                continue; // closed earlier this round
            Conn &conn = *it->second;
            if (ev.readable) {
                readReady(conn);
            } else if (ev.hangup) {
                closeConn(conn);
                continue;
            }
            if (conn.sock_.valid() && ev.writable)
                flushWrites(conn);
        }
        processPending();
        const auto now = clock::now();
        if (now - last_tick >= tick) {
            last_tick = now;
            sweepIdle();
            if (handlers_.onTick)
                handlers_.onTick();
        }
        for (std::uint64_t id : dead_)
            conns_.erase(id);
        dead_.clear();
    }

    // Drain: close sockets adopted mid-stop, nurse each connection's
    // queue into the kernel briefly, then close all.
    processPending();
    for (auto &[id, conn] : conns_) {
        for (int attempt = 0; conn->sock_.valid() &&
                              !conn->writeQueue_.empty() &&
                              attempt < kStopFlushAttempts;
             ++attempt) {
            if (!net::waitWritable(conn->sock_.fd(), kStopFlushWaitMs))
                continue;
            flushWrites(*conn);
        }
        if (conn->sock_.valid())
            closeConn(*conn);
    }
    conns_.clear();
    dead_.clear();
}

void
EventLoop::processPending()
{
    std::vector<net::Socket> socks;
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        socks.swap(pending_);
    }
    for (net::Socket &sock : socks)
        adoptOnLoop(std::move(sock));
}

void
EventLoop::adoptOnLoop(net::Socket &&sock)
{
    if (!sock.valid())
        return;
    if (stopping_.load(std::memory_order_relaxed))
        return; // adopted mid-stop; Socket's destructor closes it
    net::setNonBlocking(sock.fd());
    const std::uint64_t id = nextConnId_++;
    auto conn = std::make_unique<Conn>();
    conn->sock_ = std::move(sock);
    conn->loop_ = this;
    conn->id_ = id;
    conn->lastActivity_ = std::chrono::steady_clock::now();
    poller_.add(conn->sock_.fd(), id);
    conns_.emplace(id, std::move(conn));
    numConns_.fetch_add(1, std::memory_order_relaxed);
    activeGauge_.add(1);
}

void
EventLoop::acceptReady(const net::Socket &listener)
{
    while (true) {
        net::Socket accepted;
        try {
            accepted = net::acceptNonBlocking(listener);
        } catch (const std::exception &e) {
            // EMFILE and friends: shed this wave, keep serving the
            // connections we already have.
            warnAs("serve", "accept failed: ", e.what());
            return;
        }
        if (!accepted.valid())
            return; // backlog drained
        if (handlers_.onAccept)
            handlers_.onAccept(std::move(accepted));
        else
            adoptOnLoop(std::move(accepted));
    }
}

void
EventLoop::readReady(Conn &conn)
{
    // One read per readiness event: the poller is level-triggered, so
    // a socket with more bytes waiting is reported again on the next
    // round, after every other ready connection had its turn.
    char buffer[kReadChunk];
    bool eof = false;
    try {
        MTPERF_FAULT_POINT("serve.read");
        const std::size_t got = net::readSome(
            conn.sock_.fd(), buffer, sizeof(buffer), &eof);
        if (got > 0) {
            conn.lastActivity_ = std::chrono::steady_clock::now();
            conn.assembler_.feed(buffer, got);
            Frame frame;
            while (conn.sock_.valid() &&
                   conn.assembler_.next(frame, "client")) {
                if (handlers_.onFrame)
                    handlers_.onFrame(conn, std::move(frame));
            }
        }
    } catch (const std::exception &e) {
        // Damaged stream or injected fault: framing is lost, so the
        // handler gets one chance to reply before the close.
        if (conn.sock_.valid()) {
            if (handlers_.onProtocolError)
                handlers_.onProtocolError(conn, e.what());
            conn.closing_ = true;
            if (conn.writeQueue_.empty())
                closeConn(conn);
        }
        return;
    }
    if (eof && conn.sock_.valid()) {
        // Peer finished sending; flush queued replies, then close.
        conn.closing_ = true;
        if (conn.writeQueue_.empty())
            closeConn(conn);
    }
}

void
EventLoop::flushWrites(Conn &conn)
{
    const std::size_t queued_before = conn.queuedBytes_;
    while (!conn.writeQueue_.empty()) {
        const std::string &front = conn.writeQueue_.front();
        std::size_t wrote = 0;
        try {
            wrote = net::writeSome(conn.sock_.fd(),
                                   front.data() + conn.writeOffset_,
                                   front.size() - conn.writeOffset_);
        } catch (const std::exception &) {
            closeConn(conn); // peer is gone
            return;
        }
        if (wrote == 0)
            break; // kernel buffer full: epoll says when to resume
        conn.writeOffset_ += wrote;
        conn.queuedBytes_ -= wrote;
        if (conn.writeOffset_ == front.size()) {
            conn.writeQueue_.pop_front();
            conn.writeOffset_ = 0;
        }
    }
    // While the loop holds off reading a connection, a peer that
    // takes its replies is what keeps it from looking idle.
    if (!conn.wantRead_ && conn.queuedBytes_ != queued_before)
        conn.lastActivity_ = std::chrono::steady_clock::now();
    updateInterest(conn);
    if (conn.closing_ && conn.writeQueue_.empty())
        closeConn(conn);
}

void
EventLoop::updateInterest(Conn &conn)
{
    const bool want_read = conn.queuedBytes_ <= kMaxQueuedReplyBytes;
    const bool want_write = !conn.writeQueue_.empty();
    if (want_read == conn.wantRead_ && want_write == conn.wantWrite_)
        return;
    conn.wantRead_ = want_read;
    conn.wantWrite_ = want_write;
    poller_.modify(conn.sock_.fd(), conn.id_, want_read, want_write);
}

void
EventLoop::closeConn(Conn &conn)
{
    if (!conn.sock_.valid())
        return;
    poller_.remove(conn.sock_.fd());
    conn.sock_.close();
    conn.writeQueue_.clear();
    conn.queuedBytes_ = 0;
    numConns_.fetch_sub(1, std::memory_order_relaxed);
    activeGauge_.add(-1);
    dead_.push_back(conn.id_); // erased at the loop-iteration edge
}

void
EventLoop::sweepIdle()
{
    if (options_.idleTimeoutMs <= 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(options_.idleTimeoutMs);
    for (auto &[id, conn] : conns_) {
        if (conn->sock_.valid() && !conn->closing_ &&
            now - conn->lastActivity_ > limit)
            closeConn(*conn);
    }
}

} // namespace mtperf::serve
