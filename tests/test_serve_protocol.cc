/**
 * @file
 * Tests for the serving wire protocol: frame round trips, typed
 * payload round trips, and the corruption corpus (every truncation
 * and single-bit flip of an encoded frame must be detected).
 */

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "corruption_corpus.h"
#include "serve/protocol.h"

namespace mtperf::serve {
namespace {

TEST(ServeProtocol, FrameRoundTripsEveryType)
{
    for (const MsgType type :
         {kMsgPredict, kMsgInfo, kMsgReload, kMsgShutdown, MsgType{0x42},
          static_cast<MsgType>(kMsgPredict | kMsgReplyBit), kMsgError,
          kMsgRetry}) {
        Frame frame;
        frame.type = type;
        frame.id = 0xDEADBEEFu;
        frame.payload = "some payload bytes \x00\x01\xFF";
        const Frame decoded = decodeFrame(encodeFrame(frame));
        EXPECT_EQ(decoded.type, frame.type);
        EXPECT_EQ(decoded.id, frame.id);
        EXPECT_EQ(decoded.payload, frame.payload);
    }
}

TEST(ServeProtocol, EmptyPayloadFrameRoundTrips)
{
    const Frame decoded =
        decodeFrame(encodeFrame(Frame{kMsgInfo, 7, {}}));
    EXPECT_EQ(decoded.type, kMsgInfo);
    EXPECT_EQ(decoded.id, 7u);
    EXPECT_TRUE(decoded.payload.empty());
}

TEST(ServeProtocol, PredictRequestRoundTrips)
{
    PredictRequest request;
    request.wantAttribution = true;
    request.rows = 3;
    request.cols = 2;
    request.values = {1.0, -2.5, 0.0, 3.25, 1e300, -0.125};
    const PredictRequest decoded =
        decodePredictRequest(encodePredictRequest(request));
    EXPECT_EQ(decoded.wantAttribution, request.wantAttribution);
    EXPECT_EQ(decoded.rows, request.rows);
    EXPECT_EQ(decoded.cols, request.cols);
    EXPECT_EQ(decoded.values, request.values);
}

TEST(ServeProtocol, PredictResponseRoundTrips)
{
    PredictResponse response;
    response.hasAttribution = true;
    response.predictions = {0.5, 1.5, 2.5};
    response.leafIds = {0, 4, 2};
    const PredictResponse decoded =
        decodePredictResponse(encodePredictResponse(response));
    EXPECT_EQ(decoded.hasAttribution, response.hasAttribution);
    EXPECT_EQ(decoded.predictions, response.predictions);
    EXPECT_EQ(decoded.leafIds, response.leafIds);
}

TEST(ServeProtocol, DoublesTravelBitIdentically)
{
    // Predictions must be byte-identical across the wire, including
    // values that naive text formatting would destroy.
    PredictRequest request;
    request.rows = 4;
    request.cols = 1;
    request.values = {-0.0, std::numeric_limits<double>::denorm_min(),
                      std::nextafter(1.0, 2.0),
                      std::numeric_limits<double>::infinity()};
    const PredictRequest decoded =
        decodePredictRequest(encodePredictRequest(request));
    ASSERT_EQ(decoded.values.size(), request.values.size());
    for (std::size_t i = 0; i < request.values.size(); ++i) {
        EXPECT_EQ(std::signbit(decoded.values[i]),
                  std::signbit(request.values[i]));
        EXPECT_EQ(decoded.values[i], request.values[i]);
    }
}

TEST(ServeProtocol, ErrorInfoRoundTrips)
{
    const ErrorInfo decoded = decodeError(
        encodeError({kErrModel, "model file corrupt: bad checksum"}));
    EXPECT_EQ(decoded.code, kErrModel);
    EXPECT_EQ(decoded.message, "model file corrupt: bad checksum");
}

TEST(ServeProtocol, MismatchedPredictGeometryRejected)
{
    // Hand-build a payload whose header claims 2x3 values but carries
    // only one row's worth; the bounds-checked reader must throw.
    PredictRequest full;
    full.rows = 2;
    full.cols = 3;
    full.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    std::string payload = encodePredictRequest(full);
    payload.resize(payload.size() - 3 * 8); // drop the second row
    EXPECT_THROW(decodePredictRequest(payload), FatalError);
}

// ---------------------------------------------------------------
// Corruption corpus over one encoded frame
// ---------------------------------------------------------------

class ServeProtocolCorruption : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        PredictRequest request;
        request.rows = 2;
        request.cols = 3;
        request.values = {0.5, 1.5, 2.5, 3.5, 4.5, 5.5};
        frame_ = encodeFrame(
            Frame{kMsgPredict, 99, encodePredictRequest(request)});
        // PID-unique scratch: ctest runs each test as its own
        // process, possibly concurrently.
        scratch_ = testing::TempDir() + "/serve_frame_" +
                   std::to_string(::getpid()) + ".bin";
    }

    std::string frame_;
    std::string scratch_;
};

TEST_F(ServeProtocolCorruption, EveryTruncationDetected)
{
    testutil::forEachTruncation(
        frame_, scratch_, [&](std::size_t len) {
            const std::string damaged = testutil::slurpFile(scratch_);
            ASSERT_EQ(damaged.size(), len);
            EXPECT_THROW(decodeFrame(damaged, "test"), FatalError)
                << "undetected truncation to " << len << " bytes";
        });
}

TEST_F(ServeProtocolCorruption, EveryBitFlipDetected)
{
    testutil::forEachBitFlip(
        frame_, scratch_, [&](std::size_t offset, int bit) {
            const std::string damaged = testutil::slurpFile(scratch_);
            bool threw = false;
            try {
                decodeFrame(damaged, "test");
            } catch (const FatalError &) {
                threw = true;
            }
            EXPECT_TRUE(threw) << "undetected flip of byte " << offset
                               << " bit " << bit;
        });
}

TEST_F(ServeProtocolCorruption, TrailingGarbageDetected)
{
    EXPECT_THROW(decodeFrame(frame_ + "x", "test"), FatalError);
}

TEST_F(ServeProtocolCorruption, OversizedLengthRejected)
{
    // Patch the payload-length field to claim > kMaxPayload. The
    // decoder must reject the length itself, not attempt a 4 GiB
    // allocation and fail on the CRC afterwards.
    std::string damaged = frame_;
    damaged[12] = static_cast<char>(0xFF);
    damaged[13] = static_cast<char>(0xFF);
    damaged[14] = static_cast<char>(0xFF);
    damaged[15] = static_cast<char>(0xFF);
    EXPECT_THROW(decodeFrame(damaged, "test"), FatalError);
}

TEST_F(ServeProtocolCorruption, WrongMagicAndVersionRejected)
{
    std::string bad_magic = frame_;
    bad_magic[0] = 'X';
    EXPECT_THROW(decodeFrame(bad_magic, "test"), FatalError);

    std::string bad_version = frame_;
    bad_version[4] = 9;
    EXPECT_THROW(decodeFrame(bad_version, "test"), FatalError);
}

TEST_F(ServeProtocolCorruption, AdversarialGeometryRejected)
{
    // rows * cols chosen to overflow a naive 32-bit (or even 64-bit
    // byte-count) computation must not be accepted.
    PredictRequest request;
    request.rows = 0xFFFFFFFFu;
    request.cols = 0xFFFFFFFFu;
    // Hand-build the payload: flags, rows, cols, then nothing.
    std::string payload;
    auto put32 = [&](std::uint32_t v) {
        for (int b = 0; b < 4; ++b)
            payload.push_back(
                static_cast<char>((v >> (8 * b)) & 0xFF));
    };
    put32(0);          // no attribution
    put32(request.rows);
    put32(request.cols);
    EXPECT_THROW(decodePredictRequest(payload), FatalError);
}

} // namespace
} // namespace mtperf::serve
