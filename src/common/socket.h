/**
 * @file
 * RAII socket primitives for the serving layer.
 *
 * Thin, exception-reporting wrappers over the POSIX socket API: an
 * owning file-descriptor handle, TCP and Unix-domain listeners and
 * connectors, and read/write helpers with the semantics the framed
 * protocol needs (all-or-nothing writes, EOF-aware full reads). All
 * errors surface as FatalError carrying errno text, so the CLI's
 * exit-code contract treats a refused connection like any other bad
 * environment (exit 3), never as a crash.
 *
 * Addresses are written as one string:
 *
 *     HOST:PORT    e.g.  "127.0.0.1:7077"
 *     HOST         TCP with a caller-supplied default port
 *     unix:PATH    e.g.  "unix:/tmp/mtperf.sock"
 *
 * Only numeric IPv4 literals and "localhost" are resolved; serving is
 * a loopback/LAN tool, not a name-resolution exercise.
 */

#ifndef MTPERF_COMMON_SOCKET_H_
#define MTPERF_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mtperf::net {

/** Move-only owning wrapper of a socket file descriptor. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close the descriptor now (idempotent). */
    void close();

    /**
     * shutdown(SHUT_RDWR) without closing: unblocks any thread parked
     * in a read on this socket. Errors are ignored (the peer may
     * already be gone).
     */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Where a server listens or a client connects. */
struct Endpoint
{
    bool unixDomain = false;
    std::string host;        //!< TCP host (numeric IPv4 or localhost)
    std::uint16_t port = 0;  //!< TCP port
    std::string path;        //!< Unix-domain socket path

    /** Printable form ("127.0.0.1:7077" or "unix:/tmp/x.sock"). */
    std::string display() const;
};

/**
 * Parse an address string (see the file comment for the grammar).
 * @throw UsageError on a malformed address or out-of-range port.
 */
Endpoint parseEndpoint(const std::string &text,
                       std::uint16_t default_port);

/**
 * Bind and listen on a TCP endpoint. Port 0 picks an ephemeral port;
 * @p bound_port (if non-null) receives the actual port either way.
 * Accepted sockets inherit TCP_NODELAY from the listener.
 * @throw FatalError when binding fails.
 */
Socket listenTcp(const std::string &host, std::uint16_t port,
                 std::uint16_t *bound_port);

/**
 * Bind and listen on a Unix-domain socket, removing any stale socket
 * file at @p path first. @throw FatalError when binding fails.
 */
Socket listenUnix(const std::string &path);

/** Accept one connection. @throw FatalError on accept failure. */
Socket acceptOn(const Socket &listener);

/**
 * Connect to @p endpoint. @p timeout_ms > 0 also becomes the socket's
 * receive timeout, so a hung server surfaces as a FatalError instead
 * of a stuck client. @throw FatalError when the connection fails.
 */
Socket connectTo(const Endpoint &endpoint, int timeout_ms);

/**
 * Poll @p fd for readability. @return true when readable, false on
 * timeout. @throw FatalError on poll failure.
 */
bool waitReadable(int fd, int timeout_ms);

/**
 * Write exactly @p n bytes (retrying short writes, SIGPIPE
 * suppressed). @throw FatalError when the peer is gone.
 */
void writeAll(int fd, const void *data, std::size_t n);

/**
 * Read exactly @p n bytes. @return false on a clean EOF before the
 * first byte (peer closed between frames); @throw FatalError on an
 * error, a timeout, or EOF mid-buffer (a truncated frame).
 */
bool readFully(int fd, void *data, std::size_t n);

// ------------------------------------------------------------------
// Non-blocking / readiness plumbing (the event-loop substrate)
// ------------------------------------------------------------------

/**
 * Poll @p fd for writability. @return true when writable, false on
 * timeout. @throw FatalError on poll failure.
 */
bool waitWritable(int fd, int timeout_ms);

/** Put @p fd into non-blocking mode. @throw FatalError. */
void setNonBlocking(int fd);

/**
 * Accept one connection without blocking (the listener must be
 * non-blocking). @return an invalid Socket when nothing is pending;
 * @throw FatalError on a real accept failure. Transient per-connection
 * failures (ECONNABORTED) read as "nothing pending".
 */
Socket acceptNonBlocking(const Socket &listener);

/**
 * Read up to @p n bytes from a non-blocking socket. @return the byte
 * count (0 when nothing is readable right now); a clean peer close
 * sets @p *eof instead. @throw FatalError on a socket error.
 */
std::size_t readSome(int fd, void *data, std::size_t n, bool *eof);

/**
 * Write up to @p n bytes to a non-blocking socket, SIGPIPE
 * suppressed. @return bytes accepted (0 when the kernel buffer is
 * full). @throw FatalError when the peer is gone.
 */
std::size_t writeSome(int fd, const void *data, std::size_t n);

/** One readiness report from Poller::wait. */
struct PollEvent
{
    std::uint64_t tag = 0; //!< the tag the fd was registered under
    bool readable = false;
    bool writable = false;
    /** Peer hung up or the fd errored; treat as readable-to-EOF. */
    bool hangup = false;
};

/**
 * RAII epoll instance: many fds multiplexed under caller-chosen u64
 * tags, level-triggered (a partial read leaves the fd ready, so no
 * drain-to-EAGAIN discipline is forced on callers). All methods
 * throw FatalError on kernel refusal.
 */
class Poller
{
  public:
    Poller();
    ~Poller();

    Poller(Poller &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Poller &operator=(Poller &&) = delete;
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Register @p fd under @p tag, watching EPOLLIN (+EPOLLOUT). */
    void add(int fd, std::uint64_t tag, bool want_write = false);

    /** Change the EPOLLIN and EPOLLOUT interest of a registered fd.
     *  Hang-ups and errors are reported either way. */
    void modify(int fd, std::uint64_t tag, bool want_read,
                bool want_write);

    /** Deregister @p fd (must still be open). */
    void remove(int fd);

    /**
     * Wait up to @p timeout_ms (-1 = forever) and fill @p events.
     * @return the number of events (0 on timeout).
     */
    std::size_t wait(std::vector<PollEvent> &events, int timeout_ms);

  private:
    int fd_ = -1;
};

/**
 * Eventfd-based cross-thread wakeup: signal() from any thread makes
 * the fd readable so a Poller blocked in wait() returns; drain()
 * consumes the pending count. Signals coalesce.
 */
class WakeupFd
{
  public:
    WakeupFd();
    ~WakeupFd();

    WakeupFd(const WakeupFd &) = delete;
    WakeupFd &operator=(const WakeupFd &) = delete;

    int fd() const { return fd_; }
    void signal();
    void drain();

  private:
    int fd_ = -1;
};

} // namespace mtperf::net

#endif // MTPERF_COMMON_SOCKET_H_
