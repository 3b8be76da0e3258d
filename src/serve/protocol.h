/**
 * @file
 * The mtperf serving wire protocol: length-prefixed, CRC-framed.
 *
 * Every message is one frame:
 *
 *     offset  size  field
 *     0       4     magic "MTPF"
 *     4       1     protocol version (1)
 *     5       1     message type
 *     6       2     reserved (must be 0)
 *     8       4     request id (echoed verbatim in the response)
 *     12      4     payload length N (little-endian, <= 64 MiB)
 *     16      N     payload
 *     16+N    4     CRC32 over bytes [0, 16+N)
 *
 * The trailing CRC covers header *and* payload, so any single-bit
 * flip or truncation anywhere in the frame is detected — the same
 * integrity contract as the PR 2 artifact formats, rehearsed by the
 * same corruption corpus. Multi-byte fields are little-endian by
 * definition (encoded with shifts, not memcpy), and doubles travel as
 * their IEEE-754 bit patterns, so predictions are bit-identical
 * across the wire.
 *
 * Request types: PREDICT (N rows x W counters -> N CPI predictions,
 * optionally with per-row leaf ids for attribution), INFO (model
 * identity, schema, and the full leaf-model listing), RELOAD (re-read
 * the model files; an old model keeps serving if its new file is
 * corrupt), SHUTDOWN. Types 4 and 6 (the retired STATS and METRICS)
 * are answered like any unknown type; counters leave the server by
 * its HTTP `/metrics` listener only. A successful response echoes the
 * request type with the high bit set; ERROR carries a code + message;
 * RETRY asks the client to resubmit after a short delay. Clients
 * honour it, but the server sends none: it answers each frame on the
 * loop that read it before reading more.
 *
 * Responses carry the request id, so a client may pipeline many
 * requests on one connection and match replies out of order.
 */

#ifndef MTPERF_SERVE_PROTOCOL_H_
#define MTPERF_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mtperf::serve {

using MsgType = std::uint8_t;

constexpr MsgType kMsgPredict = 1;
constexpr MsgType kMsgInfo = 2;
constexpr MsgType kMsgReload = 3;
constexpr MsgType kMsgShutdown = 5;

/** OK responses echo the request type with this bit set. */
constexpr MsgType kMsgReplyBit = 0x80;
/** Failure responses (payload: ErrorInfo). */
constexpr MsgType kMsgError = 0x7E;
/** Backpressure: resubmit later (empty payload; clients honour it). */
constexpr MsgType kMsgRetry = 0x7F;

/** Error codes carried by kMsgError payloads. */
constexpr std::uint32_t kErrBadRequest = 1; //!< malformed/mismatched request
constexpr std::uint32_t kErrModel = 2;      //!< model load/reload failure
constexpr std::uint32_t kErrInternal = 3;   //!< server-side bug
constexpr std::uint32_t kErrShutdown = 4;   //!< server is stopping

constexpr std::uint32_t kMaxPayload = 64u << 20;
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kTrailerSize = 4; // CRC32

/** One protocol message. */
struct Frame
{
    MsgType type = 0;
    std::uint32_t id = 0;
    std::string payload;
};

/** Serialize @p frame (header + payload + CRC). */
std::string encodeFrame(const Frame &frame);

/**
 * Decode a buffer holding exactly one frame. Any damage — bad magic,
 * unknown version, nonzero reserved bytes, oversized or mismatched
 * length, CRC failure — raises FatalError naming @p source and the
 * cause. Truncations and single-bit flips are always detected.
 */
Frame decodeFrame(std::string_view bytes,
                  const std::string &source = "<buffer>");

/**
 * Read one frame from a connected socket. @return false on a clean
 * EOF before the first header byte; @throw FatalError on a damaged
 * frame, a mid-frame EOF, or a socket error.
 */
bool readFrame(int fd, Frame &out,
               const std::string &source = "<socket>");

/**
 * Incremental frame extraction for non-blocking reads: feed() bytes
 * as they arrive, next() yields complete frames. The header is
 * validated as soon as its 16 bytes are buffered, so garbage on the
 * wire fails fast instead of waiting for a bogus payload length to
 * "complete"; CRC and length checks run per frame exactly as in
 * decodeFrame.
 */
class FrameAssembler
{
  public:
    /** Append @p n incoming bytes. */
    void feed(const char *data, std::size_t n);

    /**
     * Extract the next complete frame into @p out. @return false when
     * more bytes are needed; @throw FatalError naming @p source on a
     * damaged header or frame. After a throw the stream is unusable
     * (framing is lost) — close the connection.
     */
    bool next(Frame &out, const std::string &source = "<stream>");

  private:
    std::string buf_;
    std::size_t pos_ = 0; //!< consumed prefix, compacted lazily
};

/** Write one frame to a connected socket. @throw FatalError. */
void writeFrame(int fd, const Frame &frame);

// ------------------------------------------------------------------
// Typed payloads
// ------------------------------------------------------------------

/** Longest model key a PREDICT request may carry. */
constexpr std::uint32_t kMaxModelKey = 256;

/**
 * PREDICT request: rows x cols counter values, row-major.
 *
 * Payload layout: flags u32, rows u32, cols u32, [traceId u64 when
 * flags bit 1 is set], [keyLen u32 + key bytes when flags bit 2 is
 * set], then rows*cols doubles. The trace id is assigned by the
 * client and carried to the server so the request's spans (client
 * send, predict, reply) link up in a merged Perfetto trace; a
 * zero/absent id means "not traced". The model key selects one of a
 * multi-model server's registered models (absent = the default
 * model), and a request without a key is byte-identical to the
 * pre-multi-model encoding. Old servers reject unknown flags
 * loudly rather than mis-parsing the shifted payload.
 */
struct PredictRequest
{
    bool wantAttribution = false; //!< also return per-row leaf ids
    std::uint64_t traceId = 0;    //!< 0 = untraced
    std::string modelKey;         //!< empty = the server's default model
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<double> values; //!< rows * cols
};

/** PREDICT response. */
struct PredictResponse
{
    bool hasAttribution = false;
    std::vector<double> predictions;    //!< one per row
    std::vector<std::uint32_t> leafIds; //!< one per row when requested
};

/** ERROR payload. */
struct ErrorInfo
{
    std::uint32_t code = 0;
    std::string message;
};

std::string encodePredictRequest(const PredictRequest &request);
PredictRequest decodePredictRequest(std::string_view payload);

std::string encodePredictResponse(const PredictResponse &response);
PredictResponse decodePredictResponse(std::string_view payload);

std::string encodeError(const ErrorInfo &error);
ErrorInfo decodeError(std::string_view payload);

} // namespace mtperf::serve

#endif // MTPERF_SERVE_PROTOCOL_H_
