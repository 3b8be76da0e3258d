/**
 * @file
 * EventLoop unit tests: frame echo through the loop, cross-thread
 * adopt, kernel-buffer backpressure through EPOLLOUT, protocol-error
 * reply-then-close, idle sweeping, and the connections_active gauge
 * bookkeeping.
 *
 * The tests speak the real framed protocol over loopback TCP with
 * blocking readFrame/writeFrame on the client side, so they exercise
 * the exact byte path the server uses — minus the model, which the
 * serve tests cover.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"

namespace mtperf::serve {
namespace {

/** Spin until @p done or ~2s elapse; @return whether it finished. */
template <typename Pred>
bool
eventually(Pred done)
{
    for (int i = 0; i < 400; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
}

/** A loop that echoes every frame back with the reply bit set. */
class EchoLoopTest : public testing::Test
{
  protected:
    void
    startLoop(EventLoop::Options options = {})
    {
        listener_ = net::listenTcp("127.0.0.1", 0, &port_);
        EventLoop::Handlers handlers;
        handlers.onFrame = [this](Conn &conn, Frame &&frame) {
            frames_.fetch_add(1, std::memory_order_relaxed);
            Frame reply;
            reply.type = static_cast<MsgType>(frame.type |
                                              kMsgReplyBit);
            reply.id = frame.id;
            reply.payload = std::move(frame.payload);
            conn.loop().send(conn, encodeFrame(reply));
        };
        handlers.onProtocolError = [this](Conn &conn,
                                          const std::string &) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            Frame reply;
            reply.type = kMsgError;
            reply.id = 0;
            reply.payload = encodeError({1, "damaged stream"});
            conn.loop().send(conn, encodeFrame(reply));
        };
        loop_ = std::make_unique<EventLoop>(options,
                                            std::move(handlers));
        loop_->start(&listener_);
    }

    net::Socket
    connect()
    {
        return net::connectTo(
            net::parseEndpoint("127.0.0.1:" + std::to_string(port_),
                               0),
            2000);
    }

    net::Socket listener_;
    std::uint16_t port_ = 0;
    std::unique_ptr<EventLoop> loop_;
    std::atomic<int> frames_{0};
    std::atomic<int> protocolErrors_{0};
};

TEST_F(EchoLoopTest, EchoesFramesOnAcceptedConnection)
{
    startLoop();
    net::Socket client = connect();
    for (std::uint32_t i = 1; i <= 5; ++i) {
        Frame frame;
        frame.type = kMsgInfo;
        frame.id = i;
        frame.payload = "ping " + std::to_string(i);
        writeFrame(client.fd(), frame);
        Frame reply;
        ASSERT_TRUE(readFrame(client.fd(), reply));
        EXPECT_EQ(reply.type, kMsgInfo | kMsgReplyBit);
        EXPECT_EQ(reply.id, i);
        EXPECT_EQ(reply.payload, frame.payload);
    }
    EXPECT_EQ(frames_.load(), 5);
    EXPECT_TRUE(eventually(
        [&] { return loop_->numConnections() == 1; }));
}

TEST_F(EchoLoopTest, LargeReplyDrainsThroughWriteBackpressure)
{
    startLoop();
    net::Socket client = connect();
    // 8 MiB payload: far past any socket buffer, so the echo is
    // forced through writeSome()==0 -> EPOLLOUT -> resumed flushes.
    std::string payload(8u << 20, 'x');
    for (std::size_t i = 0; i < payload.size(); i += 4096)
        payload[i] = static_cast<char>('a' + (i / 4096) % 26);
    Frame frame;
    frame.type = kMsgInfo;
    frame.id = 42;
    frame.payload = payload;
    std::thread writer(
        [&] { writeFrame(client.fd(), frame); });
    Frame reply;
    ASSERT_TRUE(readFrame(client.fd(), reply));
    writer.join();
    EXPECT_EQ(reply.id, 42u);
    EXPECT_EQ(reply.payload.size(), payload.size());
    EXPECT_EQ(reply.payload, payload);
}

TEST_F(EchoLoopTest, DamagedStreamGetsErrorReplyThenClose)
{
    startLoop();
    net::Socket client = connect();
    std::string garbage = "NOPE this is not a frame header....";
    net::writeAll(client.fd(), garbage.data(), garbage.size());
    Frame reply;
    ASSERT_TRUE(readFrame(client.fd(), reply));
    EXPECT_EQ(reply.type, kMsgError);
    EXPECT_EQ(decodeError(reply.payload).message, "damaged stream");
    // After the reply the loop closes the connection.
    Frame next;
    EXPECT_FALSE(readFrame(client.fd(), next));
    EXPECT_EQ(protocolErrors_.load(), 1);
    EXPECT_TRUE(eventually(
        [&] { return loop_->numConnections() == 0; }));
}

TEST_F(EchoLoopTest, IdleConnectionsAreSwept)
{
    EventLoop::Options options;
    options.pollIntervalMs = 10;
    options.idleTimeoutMs = 50;
    startLoop(options);
    net::Socket client = connect();
    ASSERT_TRUE(eventually(
        [&] { return loop_->numConnections() == 1; }));
    // Never send anything: the sweep must drop us.
    EXPECT_TRUE(eventually(
        [&] { return loop_->numConnections() == 0; }));
    Frame reply;
    EXPECT_FALSE(readFrame(client.fd(), reply)) << "EOF expected";
}

TEST_F(EchoLoopTest, ClientDisconnectReturnsGaugeToBaseline)
{
    startLoop();
    obs::Gauge &gauge = obs::gauge("serve.connections_active");
    const std::int64_t baseline = gauge.value();
    {
        net::Socket a = connect();
        net::Socket b = connect();
        Frame frame;
        frame.type = kMsgInfo;
        frame.id = 1;
        writeFrame(a.fd(), frame);
        Frame reply;
        ASSERT_TRUE(readFrame(a.fd(), reply));
        EXPECT_TRUE(eventually(
            [&] { return gauge.value() == baseline + 2; }));
    }
    EXPECT_TRUE(eventually(
        [&] { return gauge.value() == baseline; }));
    EXPECT_TRUE(eventually(
        [&] { return loop_->numConnections() == 0; }));
}

TEST(EventLoopAdopt, CrossThreadAdoptOntoListenerlessLoop)
{
    // The server's round-robin placement: the accepting loop hands
    // sockets to sibling loops via adopt() from another thread.
    EventLoop::Handlers handlers;
    handlers.onFrame = [](Conn &conn, Frame &&frame) {
        Frame reply;
        reply.type = static_cast<MsgType>(frame.type | kMsgReplyBit);
        reply.id = frame.id;
        reply.payload = std::move(frame.payload);
        conn.loop().send(conn, encodeFrame(reply));
    };
    EventLoop loop({}, std::move(handlers));
    loop.start(); // no listener

    std::uint16_t port = 0;
    net::Socket listener = net::listenTcp("127.0.0.1", 0, &port);
    net::Socket client = net::connectTo(
        net::parseEndpoint("127.0.0.1:" + std::to_string(port), 0),
        2000);
    loop.adopt(net::acceptOn(listener));

    Frame frame;
    frame.type = kMsgInfo;
    frame.id = 3;
    frame.payload = "adopted";
    writeFrame(client.fd(), frame);
    Frame reply;
    ASSERT_TRUE(readFrame(client.fd(), reply));
    EXPECT_EQ(reply.payload, "adopted");
    EXPECT_EQ(loop.numConnections(), 1u);
    loop.stop();
    EXPECT_EQ(loop.numConnections(), 0u);
}

TEST(EventLoopAccept, AcceptedSocketsDisableNagle)
{
    // A reply held back by Nagle waits for the client's delayed ACK
    // (hundreds of microseconds on loopback); both accept paths must
    // hand out sockets with TCP_NODELAY set.
    auto nodelay = [](const net::Socket &sock) {
        int value = 0;
        socklen_t len = sizeof(value);
        EXPECT_EQ(::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY,
                               &value, &len),
                  0);
        return value != 0;
    };
    std::uint16_t port = 0;
    net::Socket listener = net::listenTcp("127.0.0.1", 0, &port);
    const auto endpoint =
        net::parseEndpoint("127.0.0.1:" + std::to_string(port), 0);

    net::Socket blocking_client = net::connectTo(endpoint, 2000);
    EXPECT_TRUE(nodelay(net::acceptOn(listener)));

    net::setNonBlocking(listener.fd());
    net::Socket polled_client = net::connectTo(endpoint, 2000);
    net::Socket accepted;
    ASSERT_TRUE(eventually([&] {
        accepted = net::acceptNonBlocking(listener);
        return accepted.valid();
    }));
    EXPECT_TRUE(nodelay(accepted));
}

TEST(EventLoopStop, StopIsIdempotentAndClosesConnections)
{
    EventLoop::Handlers handlers;
    handlers.onFrame = [](Conn &, Frame &&) {};
    EventLoop loop({}, std::move(handlers));
    loop.start();

    std::uint16_t port = 0;
    net::Socket listener = net::listenTcp("127.0.0.1", 0, &port);
    net::Socket client = net::connectTo(
        net::parseEndpoint("127.0.0.1:" + std::to_string(port), 0),
        2000);
    loop.adopt(net::acceptOn(listener));
    ASSERT_TRUE(eventually(
        [&] { return loop.numConnections() == 1; }));

    loop.stop();
    loop.stop(); // second stop must be a no-op
    EXPECT_EQ(loop.numConnections(), 0u);
    Frame reply;
    EXPECT_FALSE(readFrame(client.fd(), reply)) << "EOF expected";
}

} // namespace
} // namespace mtperf::serve
