#include "obs/metrics_http.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/thread_info.h"

namespace mtperf::obs {

namespace {

/** Largest request head we will buffer before giving up. */
constexpr std::size_t kMaxRequestBytes = 8192;

/** The whole request head must arrive within this. */
constexpr auto kRequestHeadTimeout = std::chrono::milliseconds(2000);

std::string
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default: return "Bad Request";
    }
}

void
sendResponse(const net::Socket &client, int status,
             const std::string &contentType, const std::string &body)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                       statusText(status) + "\r\n";
    head += "Content-Type: " + contentType + "\r\n";
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    head += "Connection: close\r\n\r\n";
    net::writeAll(client.fd(), head.data(), head.size());
    net::writeAll(client.fd(), body.data(), body.size());
}

/**
 * Read until the blank line ending the request head (we ignore any
 * body; GET has none). One deadline covers the whole head, so a
 * client dribbling bytes cannot hold the listener's only thread.
 * @return false when the peer hung up, was too slow, or sent more
 * head than we buffer.
 */
bool
readRequestHead(const net::Socket &client, std::string &head)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kRequestHeadTimeout;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos) {
        if (head.size() >= kMaxRequestBytes)
            return false;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now());
        if (left.count() <= 0 ||
            !net::waitReadable(client.fd(), static_cast<int>(left.count())))
            return false;
        const ssize_t n = ::read(client.fd(), buf, sizeof buf);
        if (n <= 0)
            return false;
        head.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

} // namespace

MetricsHttpServer::MetricsHttpServer(Options options)
    : options_(std::move(options))
{
    listener_ = net::listenTcp(options_.host, options_.port, &port_);
}

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
}

void
MetricsHttpServer::start()
{
    if (running_)
        return;
    running_ = true;
    stopping_.store(false);
    thread_ = std::thread([this] { run(); });
}

void
MetricsHttpServer::stop()
{
    if (!running_)
        return;
    stopping_.store(true);
    listener_.shutdownBoth(); // unblock a parked accept immediately
    thread_.join();
    running_ = false;
}

void
MetricsHttpServer::run()
{
    setCurrentThreadName("mtperf-metrics-http");
    static Counter &requests = counter("obs.metrics_http.requests");
    static Counter &errors = counter("obs.metrics_http.errors");
    while (!stopping_.load()) {
        if (!net::waitReadable(listener_.fd(), 100))
            continue;
        if (stopping_.load())
            break;
        try {
            handle(net::acceptOn(listener_));
            requests.increment();
        } catch (const std::exception &e) {
            if (stopping_.load())
                break;
            errors.increment();
            warn("metrics http: ", e.what());
        }
    }
}

void
MetricsHttpServer::handle(net::Socket client)
{
    std::string head;
    if (!readRequestHead(client, head))
        return; // peer gone or oversized head; nothing to answer
    const std::size_t eol = head.find("\r\n");
    const std::vector<std::string> words =
        split(head.substr(0, eol), ' ');
    if (words.size() < 2) {
        sendResponse(client, 400, "text/plain", "bad request\n");
        return;
    }
    if (words[0] != "GET") {
        sendResponse(client, 405, "text/plain",
                     "only GET is supported\n");
        return;
    }
    if (words[1] != "/metrics") {
        sendResponse(client, 404, "text/plain",
                     "try /metrics\n");
        return;
    }
    sendResponse(client, 200, kPrometheusContentType,
                 metricsToPrometheus());
}

HttpResponse
httpGet(const std::string &host, std::uint16_t port,
        const std::string &path, int timeout_ms)
{
    net::Endpoint endpoint;
    endpoint.host = host;
    endpoint.port = port;
    const net::Socket sock = net::connectTo(endpoint, timeout_ms);
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " +
                                host + "\r\nConnection: close\r\n\r\n";
    net::writeAll(sock.fd(), request.data(), request.size());

    std::string reply;
    char buf[4096];
    while (true) {
        if (!net::waitReadable(sock.fd(), timeout_ms))
            mtperf_fatal("http get ", path, ": response timed out");
        const ssize_t n = ::read(sock.fd(), buf, sizeof buf);
        if (n < 0)
            mtperf_fatal("http get ", path, ": read failed: ",
                         std::strerror(errno));
        if (n == 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }

    // "HTTP/1.1 200 OK\r\n<headers>\r\n\r\n<body>"
    if (!startsWith(reply, "HTTP/1."))
        mtperf_fatal("http get ", path, ": not an HTTP response");
    const std::size_t statusStart = reply.find(' ');
    const std::size_t headEnd = reply.find("\r\n\r\n");
    if (statusStart == std::string::npos ||
        headEnd == std::string::npos)
        mtperf_fatal("http get ", path, ": malformed response head");
    HttpResponse response;
    response.status = static_cast<int>(
        parseSize(reply.substr(statusStart + 1, 3), "http status"));
    response.body = reply.substr(headEnd + 4);
    return response;
}

} // namespace mtperf::obs
