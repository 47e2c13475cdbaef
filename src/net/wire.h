// Binary wire protocol for the network serving edge.
//
// One frame = one 32-byte header + payload. All integers are
// little-endian, composed byte-by-byte (no struct punning), so the
// format is identical across hosts and sanitizer-clean:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic            0x4F53454Cu ("LESO" on the wire)
//        4     1  version          kWireVersion (1)
//        5     1  type             1=request 2=response 3=error
//        6     2  flags            response: Response bools (below)
//        8     8  request_id       echoed request → response
//       16     4  payload_len      bytes after the header (bounded)
//       20     4  reserved         must be 0
//       24     8  checksum         FNV-1a over header[0..24) + payload
//
// Payloads:
//   request   raw (un-normalized) query bytes
//   response  u64 store_version · u32 num_specializations ·
//             u32 count · count × u32 doc ids
//   error     u16 code (ErrorCode) · message bytes
//
// Response flag bits mirror serving::Response exactly — a remote
// answer decodes to the same struct a local call returns, which is
// what makes local and remote serving interchangeable behind
// serving::Frontend:
//   bit 0 ok · 1 diversified · 2 cache_hit · 3 batch_dedup ·
//   4 plan_served · 5 streaming_served · 6 degraded · 7 hedged
//
// The FrameParser is an incremental, bounded deframer for async reads:
// feed it whatever recv() produced; it never over-reads past a frame
// boundary and rejects the stream (fatal, close the connection) on bad
// magic/version/reserved bytes, an oversized declared length, or a
// checksum mismatch. Truncated input is simply "no frame yet" — that
// is what makes slow-loris partial writes safe.

#ifndef OPTSELECT_NET_WIRE_H_
#define OPTSELECT_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "serving/frontend.h"

namespace optselect {
namespace net {

inline constexpr uint32_t kMagic = 0x4F53454Cu;
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kHeaderSize = 32;
/// Declared-length ceiling: a header announcing more than this is a
/// protocol violation (protects the per-connection read buffer).
inline constexpr uint32_t kMaxPayload = 1u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
};

/// Machine-readable cause carried by an error frame.
enum class ErrorCode : uint16_t {
  /// Admission control refused the request (queue full / too many
  /// in-flight); retry later. The connection stays open.
  kShed = 1,
  /// The request frame decoded but was semantically unusable.
  kBadRequest = 2,
  /// The server is draining; no further requests will be answered.
  kShutdown = 3,
  /// The serving path itself failed (Response.ok == false upstream).
  kServeFailed = 4,
};

// Response flag bits (wire ↔ serving::Response).
inline constexpr uint16_t kFlagOk = 1u << 0;
inline constexpr uint16_t kFlagDiversified = 1u << 1;
inline constexpr uint16_t kFlagCacheHit = 1u << 2;
inline constexpr uint16_t kFlagBatchDedup = 1u << 3;
inline constexpr uint16_t kFlagPlanServed = 1u << 4;
inline constexpr uint16_t kFlagStreamingServed = 1u << 5;
inline constexpr uint16_t kFlagDegraded = 1u << 6;
inline constexpr uint16_t kFlagHedged = 1u << 7;

/// One decoded frame (header fields + raw payload bytes).
struct Frame {
  FrameType type = FrameType::kRequest;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  std::string payload;
};

/// Decoded error-frame payload.
struct WireError {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

/// Serializes an arbitrary frame (header + checksum + payload).
std::string EncodeFrame(const Frame& frame);

/// Request → one request frame (payload = raw query bytes).
std::string EncodeRequestFrame(const serving::Request& request);

/// Response → one response frame for `request_id` (flags from the
/// Response bools, payload = version/specializations/ranking).
std::string EncodeResponseFrame(uint64_t request_id,
                                const serving::Response& response);

/// Error → one error frame for `request_id`.
std::string EncodeErrorFrame(uint64_t request_id, ErrorCode code,
                             const std::string& message);

/// Payload decoders; false when the payload bytes are malformed
/// (short, inconsistent count, trailing bytes). The frame must have
/// the matching type.
bool DecodeRequestPayload(const Frame& frame, serving::Request* out);
bool DecodeResponsePayload(const Frame& frame, serving::Response* out);
bool DecodeErrorPayload(const Frame& frame, WireError* out);

/// Incremental, bounded stream deframer (one per connection).
class FrameParser {
 public:
  /// Appends `size` raw stream bytes and extracts every complete
  /// frame. Returns false on a fatal protocol violation (bad
  /// magic/version/reserved, oversized length, checksum mismatch) —
  /// the stream is poisoned and the connection should be closed;
  /// every later Feed also returns false. Partial frames return true
  /// and wait for more bytes.
  bool Feed(const char* data, size_t size);

  /// Complete frames parsed so far, in stream order.
  bool HasFrame() const { return !frames_.empty(); }

  /// Pops the oldest parsed frame. HasFrame() must be true.
  Frame Next();

  /// Why the stream was rejected (empty until Feed returns false).
  const std::string& error() const { return error_; }

  /// Bytes buffered waiting for a frame boundary (bounded by
  /// kHeaderSize + kMaxPayload by construction).
  size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::deque<Frame> frames_;
  std::string error_;
  bool poisoned_ = false;
};

/// serving::Response bools → wire flags and back.
uint16_t PackResponseFlags(const serving::Response& response);
void UnpackResponseFlags(uint16_t flags, serving::Response* response);

}  // namespace net
}  // namespace optselect

#endif  // OPTSELECT_NET_WIRE_H_
