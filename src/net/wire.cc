#include "net/wire.h"

#include <cstring>

#include "util/hash.h"

namespace optselect {
namespace net {
namespace {

// Explicit little-endian byte composition — no aliasing, no
// host-endianness dependence.
void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out->push_back(static_cast<char>((v >> shift) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out->push_back(static_cast<char>((v >> shift) & 0xff));
}

uint16_t GetU16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// Checksum = FNV-1a over the first 24 header bytes (everything before
// the checksum field) chained over the payload.
uint64_t FrameChecksum(const std::string& header_prefix,
                       const std::string& payload) {
  uint64_t state = util::Fnv1a64(header_prefix.data(), 24);
  return util::Fnv1a64(payload.data(), payload.size(), state);
}

}  // namespace

uint16_t PackResponseFlags(const serving::Response& response) {
  uint16_t flags = 0;
  if (response.ok) flags |= kFlagOk;
  if (response.diversified) flags |= kFlagDiversified;
  if (response.cache_hit) flags |= kFlagCacheHit;
  if (response.batch_dedup) flags |= kFlagBatchDedup;
  if (response.plan_served) flags |= kFlagPlanServed;
  if (response.streaming_served) flags |= kFlagStreamingServed;
  if (response.degraded) flags |= kFlagDegraded;
  if (response.hedged) flags |= kFlagHedged;
  return flags;
}

void UnpackResponseFlags(uint16_t flags, serving::Response* response) {
  response->ok = (flags & kFlagOk) != 0;
  response->diversified = (flags & kFlagDiversified) != 0;
  response->cache_hit = (flags & kFlagCacheHit) != 0;
  response->batch_dedup = (flags & kFlagBatchDedup) != 0;
  response->plan_served = (flags & kFlagPlanServed) != 0;
  response->streaming_served = (flags & kFlagStreamingServed) != 0;
  response->degraded = (flags & kFlagDegraded) != 0;
  response->hedged = (flags & kFlagHedged) != 0;
}

std::string EncodeFrame(const Frame& frame) {
  std::string header;
  header.reserve(kHeaderSize);
  PutU32(&header, kMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(frame.type));
  PutU16(&header, frame.flags);
  PutU64(&header, frame.request_id);
  PutU32(&header, static_cast<uint32_t>(frame.payload.size()));
  PutU32(&header, 0);  // reserved

  std::string out;
  out.reserve(kHeaderSize + frame.payload.size());
  out += header;
  PutU64(&out, FrameChecksum(header, frame.payload));
  out += frame.payload;
  return out;
}

std::string EncodeRequestFrame(const serving::Request& request) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = request.id;
  frame.payload = request.query;
  return EncodeFrame(frame);
}

std::string EncodeResponseFrame(uint64_t request_id,
                                const serving::Response& response) {
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = PackResponseFlags(response);
  frame.request_id = request_id;
  frame.payload.reserve(16 + 4 * response.ranking.size());
  PutU64(&frame.payload, response.store_version);
  PutU32(&frame.payload, static_cast<uint32_t>(response.num_specializations));
  PutU32(&frame.payload, static_cast<uint32_t>(response.ranking.size()));
  for (DocId doc : response.ranking) PutU32(&frame.payload, doc);
  return EncodeFrame(frame);
}

std::string EncodeErrorFrame(uint64_t request_id, ErrorCode code,
                             const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.request_id = request_id;
  PutU16(&frame.payload, static_cast<uint16_t>(code));
  frame.payload += message;
  return EncodeFrame(frame);
}

bool DecodeRequestPayload(const Frame& frame, serving::Request* out) {
  if (frame.type != FrameType::kRequest) return false;
  out->query = frame.payload;
  out->id = frame.request_id;
  return true;
}

bool DecodeResponsePayload(const Frame& frame, serving::Response* out) {
  if (frame.type != FrameType::kResponse) return false;
  const std::string& p = frame.payload;
  if (p.size() < 16) return false;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(p.data());
  *out = serving::Response();
  UnpackResponseFlags(frame.flags, out);
  out->store_version = GetU64(bytes);
  out->num_specializations = GetU32(bytes + 8);
  uint32_t count = GetU32(bytes + 12);
  // The declared ranking must account for exactly the remaining bytes.
  if (p.size() != 16 + static_cast<size_t>(count) * 4) return false;
  out->ranking.reserve(count);
  for (uint32_t i = 0; i < count; ++i)
    out->ranking.push_back(GetU32(bytes + 16 + i * 4));
  return true;
}

bool DecodeErrorPayload(const Frame& frame, WireError* out) {
  if (frame.type != FrameType::kError) return false;
  const std::string& p = frame.payload;
  if (p.size() < 2) return false;
  out->code = static_cast<ErrorCode>(
      GetU16(reinterpret_cast<const unsigned char*>(p.data())));
  out->message.assign(p, 2, p.size() - 2);
  return true;
}

bool FrameParser::Feed(const char* data, size_t size) {
  if (poisoned_) return false;
  buffer_.append(data, size);
  while (buffer_.size() >= kHeaderSize) {
    const unsigned char* h =
        reinterpret_cast<const unsigned char*>(buffer_.data());
    if (GetU32(h) != kMagic) {
      error_ = "bad magic";
    } else if (h[4] != kWireVersion) {
      error_ = "unsupported version";
    } else if (h[5] < 1 || h[5] > 3) {
      error_ = "unknown frame type";
    } else if (GetU32(h + 20) != 0) {
      error_ = "nonzero reserved field";
    } else if (GetU32(h + 16) > kMaxPayload) {
      error_ = "oversized payload length";
    }
    if (!error_.empty()) {
      poisoned_ = true;
      return false;
    }
    uint32_t payload_len = GetU32(h + 16);
    if (buffer_.size() < kHeaderSize + payload_len) break;  // need more

    Frame frame;
    frame.type = static_cast<FrameType>(h[5]);
    frame.flags = GetU16(h + 6);
    frame.request_id = GetU64(h + 8);
    frame.payload.assign(buffer_, kHeaderSize, payload_len);

    uint64_t declared = GetU64(h + 24);
    uint64_t actual = util::Fnv1a64(buffer_.data(), 24);
    actual = util::Fnv1a64(frame.payload.data(), frame.payload.size(), actual);
    if (declared != actual) {
      error_ = "checksum mismatch";
      poisoned_ = true;
      return false;
    }
    frames_.push_back(std::move(frame));
    buffer_.erase(0, kHeaderSize + payload_len);
  }
  return true;
}

Frame FrameParser::Next() {
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

}  // namespace net
}  // namespace optselect
