#include "common/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/strings.h"

namespace mtperf::net {

namespace {

[[noreturn]] void
failErrno(const std::string &what)
{
    mtperf_fatal(what, ": ", std::strerror(errno));
}

/** Resolve a numeric IPv4 literal or "localhost". */
in_addr
resolveHost(const std::string &host)
{
    in_addr addr{};
    const std::string name = host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, name.c_str(), &addr) != 1) {
        mtperf_fatal("cannot resolve host '", host,
                     "' (numeric IPv4 or localhost only)");
    }
    return addr;
}

sockaddr_in
tcpAddress(const std::string &host, std::uint16_t port)
{
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr = resolveHost(host);
    sa.sin_port = htons(port);
    return sa;
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(sa.sun_path))
        mtperf_fatal("unix socket path too long: ", path);
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

} // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

std::string
Endpoint::display() const
{
    if (unixDomain)
        return "unix:" + path;
    return host + ":" + std::to_string(port);
}

Endpoint
parseEndpoint(const std::string &text, std::uint16_t default_port)
{
    Endpoint ep;
    const std::string addr = trim(text);
    if (addr.empty())
        throw UsageError("empty listen/connect address");
    if (startsWith(addr, "unix:")) {
        ep.unixDomain = true;
        ep.path = addr.substr(5);
        if (ep.path.empty())
            throw UsageError("empty unix socket path in '" + addr + "'");
        return ep;
    }
    const auto colon = addr.rfind(':');
    if (colon == std::string::npos) {
        ep.host = addr;
        ep.port = default_port;
        return ep;
    }
    ep.host = addr.substr(0, colon);
    const std::string port_text = addr.substr(colon + 1);
    std::uint64_t port = 0;
    try {
        port = parseSize(port_text, "port in '" + addr + "'");
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
    if (ep.host.empty() || port > 65535) {
        throw UsageError("bad address '" + addr +
                         "' (want HOST[:PORT] or unix:PATH, "
                         "port in [0,65535])");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
}

Socket
listenTcp(const std::string &host, std::uint16_t port,
          std::uint16_t *bound_port)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        failErrno("socket()");
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // Replies must not wait on Nagle for the peer's delayed ACK; Linux
    // copies the option to every socket accepted from this listener.
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in sa = tcpAddress(host, port);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&sa),
               sizeof(sa)) != 0) {
        failErrno("cannot bind " + host + ":" + std::to_string(port));
    }
    if (::listen(sock.fd(), 64) != 0)
        failErrno("listen()");
    if (bound_port != nullptr) {
        sockaddr_in actual{};
        socklen_t len = sizeof(actual);
        if (::getsockname(sock.fd(),
                          reinterpret_cast<sockaddr *>(&actual),
                          &len) != 0) {
            failErrno("getsockname()");
        }
        *bound_port = ntohs(actual.sin_port);
    }
    return sock;
}

Socket
listenUnix(const std::string &path)
{
    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid())
        failErrno("socket()");
    ::unlink(path.c_str()); // stale socket from a previous run
    sockaddr_un sa = unixAddress(path);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&sa),
               sizeof(sa)) != 0) {
        failErrno("cannot bind unix socket " + path);
    }
    if (::listen(sock.fd(), 64) != 0)
        failErrno("listen()");
    return sock;
}

Socket
acceptOn(const Socket &listener)
{
    while (true) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0)
            return Socket(fd);
        if (errno == EINTR)
            continue;
        failErrno("accept()");
    }
}

Socket
connectTo(const Endpoint &endpoint, int timeout_ms)
{
    Socket sock(::socket(endpoint.unixDomain ? AF_UNIX : AF_INET,
                         SOCK_STREAM, 0));
    if (!sock.valid())
        failErrno("socket()");
    if (timeout_ms > 0) {
        timeval tv{};
        tv.tv_sec = timeout_ms / 1000;
        tv.tv_usec = (timeout_ms % 1000) * 1000;
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv));
    }
    int rc;
    if (endpoint.unixDomain) {
        sockaddr_un sa = unixAddress(endpoint.path);
        rc = ::connect(sock.fd(), reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa));
    } else {
        sockaddr_in sa = tcpAddress(endpoint.host, endpoint.port);
        if (endpoint.port == 0)
            mtperf_fatal("cannot connect to port 0 (", endpoint.display(),
                         ")");
        rc = ::connect(sock.fd(), reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa));
    }
    if (rc != 0)
        failErrno("cannot connect to " + endpoint.display());
    if (!endpoint.unixDomain) {
        // Request/response framing wants low latency, not Nagle.
        const int one = 1;
        ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    return sock;
}

bool
waitReadable(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    while (true) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;
        if (errno == EINTR)
            continue;
        failErrno("poll()");
    }
}

void
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
        if (written < 0) {
            if (errno == EINTR)
                continue;
            failErrno("socket write failed");
        }
        p += written;
        n -= static_cast<std::size_t>(written);
    }
}

bool
readFully(int fd, void *data, std::size_t n)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::recv(fd, p + got, n - got, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                mtperf_fatal("socket read timed out");
            failErrno("socket read failed");
        }
        if (r == 0) {
            if (got == 0)
                return false; // clean EOF between frames
            mtperf_fatal("connection closed mid-frame (got ", got,
                         " of ", n, " bytes)");
        }
        got += static_cast<std::size_t>(r);
    }
    return true;
}

bool
waitWritable(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    while (true) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;
        if (errno == EINTR)
            continue;
        failErrno("poll()");
    }
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
        failErrno("cannot set O_NONBLOCK");
}

Socket
acceptNonBlocking(const Socket &listener)
{
    while (true) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0)
            return Socket(fd);
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED)
            return Socket();
        failErrno("accept()");
    }
}

std::size_t
readSome(int fd, void *data, std::size_t n, bool *eof)
{
    if (eof != nullptr)
        *eof = false;
    while (true) {
        const ssize_t r = ::recv(fd, data, n, 0);
        if (r > 0)
            return static_cast<std::size_t>(r);
        if (r == 0) {
            if (eof != nullptr)
                *eof = true;
            return 0;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 0;
        failErrno("socket read failed");
    }
}

std::size_t
writeSome(int fd, const void *data, std::size_t n)
{
    while (true) {
        const ssize_t written = ::send(fd, data, n, MSG_NOSIGNAL);
        if (written >= 0)
            return static_cast<std::size_t>(written);
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 0;
        failErrno("socket write failed");
    }
}

Poller::Poller() : fd_(::epoll_create1(EPOLL_CLOEXEC))
{
    if (fd_ < 0)
        failErrno("epoll_create1()");
}

Poller::~Poller()
{
    if (fd_ >= 0)
        ::close(fd_);
}

namespace {

epoll_event
epollEventFor(std::uint64_t tag, bool want_read, bool want_write)
{
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = tag;
    return ev;
}

} // namespace

void
Poller::add(int fd, std::uint64_t tag, bool want_write)
{
    epoll_event ev = epollEventFor(tag, true, want_write);
    if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        failErrno("epoll_ctl(ADD)");
}

void
Poller::modify(int fd, std::uint64_t tag, bool want_read,
               bool want_write)
{
    epoll_event ev = epollEventFor(tag, want_read, want_write);
    if (::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) != 0)
        failErrno("epoll_ctl(MOD)");
}

void
Poller::remove(int fd)
{
    epoll_event ev{};
    if (::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, &ev) != 0)
        failErrno("epoll_ctl(DEL)");
}

std::size_t
Poller::wait(std::vector<PollEvent> &events, int timeout_ms)
{
    constexpr int kMaxEvents = 64;
    epoll_event raw[kMaxEvents];
    int count;
    while (true) {
        count = ::epoll_wait(fd_, raw, kMaxEvents, timeout_ms);
        if (count >= 0)
            break;
        if (errno == EINTR)
            continue;
        failErrno("epoll_wait()");
    }
    events.clear();
    events.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        PollEvent ev;
        ev.tag = raw[i].data.u64;
        ev.readable = (raw[i].events & EPOLLIN) != 0;
        ev.writable = (raw[i].events & EPOLLOUT) != 0;
        ev.hangup = (raw[i].events & (EPOLLHUP | EPOLLERR)) != 0;
        events.push_back(ev);
    }
    return events.size();
}

WakeupFd::WakeupFd()
    : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))
{
    if (fd_ < 0)
        failErrno("eventfd()");
}

WakeupFd::~WakeupFd()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
WakeupFd::signal()
{
    const std::uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a wakeup.
    [[maybe_unused]] const ssize_t rc =
        ::write(fd_, &one, sizeof(one));
}

void
WakeupFd::drain()
{
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t rc =
        ::read(fd_, &count, sizeof(count));
}

} // namespace mtperf::net
