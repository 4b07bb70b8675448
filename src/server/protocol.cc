#include "server/protocol.h"

#include <cstring>

namespace alt {
namespace server {

const char* RespStatusName(RespStatus s) {
  switch (s) {
    case RespStatus::kOk: return "ok";
    case RespStatus::kNotFound: return "not_found";
    case RespStatus::kMalformed: return "malformed";
    case RespStatus::kUnsupported: return "unsupported";
    case RespStatus::kTooLarge: return "too_large";
    case RespStatus::kServerError: return "server_error";
  }
  return "unknown";
}

void AppendHeader(std::vector<uint8_t>* out, uint8_t code, uint64_t request_id,
                  uint32_t body_len, uint8_t echo_op) {
  uint8_t h[kHeaderBytes];
  StoreU32(h, body_len);
  h[4] = kProtocolVersion;
  h[5] = code;
  h[6] = echo_op;
  h[7] = 0;  // reserved
  StoreU64(h + 8, request_id);
  out->insert(out->end(), h, h + kHeaderBytes);
}

void AppendGet(std::vector<uint8_t>* out, uint64_t request_id, Key key) {
  AppendHeader(out, static_cast<uint8_t>(Op::kGet), request_id, 8);
  PutU64(out, key);
}

void AppendPut(std::vector<uint8_t>* out, uint64_t request_id, Key key,
               Value value) {
  AppendHeader(out, static_cast<uint8_t>(Op::kPut), request_id, 16);
  PutU64(out, key);
  PutU64(out, value);
}

void AppendDel(std::vector<uint8_t>* out, uint64_t request_id, Key key) {
  AppendHeader(out, static_cast<uint8_t>(Op::kDel), request_id, 8);
  PutU64(out, key);
}

void AppendScan(std::vector<uint8_t>* out, uint64_t request_id, Key start,
                uint32_t count) {
  AppendHeader(out, static_cast<uint8_t>(Op::kScan), request_id, 12);
  PutU64(out, start);
  PutU32(out, count);
}

void AppendStats(std::vector<uint8_t>* out, uint64_t request_id) {
  AppendHeader(out, static_cast<uint8_t>(Op::kStats), request_id, 0);
}

void AppendValueResponse(std::vector<uint8_t>* out, uint64_t request_id,
                         Value value) {
  AppendHeader(out, static_cast<uint8_t>(RespStatus::kOk), request_id, 8,
               static_cast<uint8_t>(Op::kGet));
  PutU64(out, value);
}

void AppendStatusResponse(std::vector<uint8_t>* out, uint64_t request_id,
                          RespStatus status, uint8_t echo_op) {
  AppendHeader(out, static_cast<uint8_t>(status), request_id, 0, echo_op);
}

void AppendPutResponse(std::vector<uint8_t>* out, uint64_t request_id,
                       bool created) {
  AppendHeader(out, static_cast<uint8_t>(RespStatus::kOk), request_id, 1,
               static_cast<uint8_t>(Op::kPut));
  out->push_back(created ? 1 : 0);
}

void AppendScanResponse(std::vector<uint8_t>* out, uint64_t request_id,
                        const std::pair<Key, Value>* pairs, uint32_t n) {
  AppendHeader(out, static_cast<uint8_t>(RespStatus::kOk), request_id,
               4 + n * 16, static_cast<uint8_t>(Op::kScan));
  const size_t at = out->size();
  out->resize(at + 4 + size_t{n} * 16);
  uint8_t* p = out->data() + at;
  StoreU32(p, n);
  for (uint32_t i = 0; i < n; ++i, p += 16) {
    StoreU64(p + 4, pairs[i].first);
    StoreU64(p + 12, pairs[i].second);
  }
}

void AppendStatsResponse(std::vector<uint8_t>* out, uint64_t request_id,
                         const std::string& json) {
  AppendHeader(out, static_cast<uint8_t>(RespStatus::kOk), request_id,
               static_cast<uint32_t>(json.size()),
               static_cast<uint8_t>(Op::kStats));
  out->insert(out->end(), json.begin(), json.end());
}

RespStatus ValidateRequest(const FrameHeader& h) {
  if (h.version != kProtocolVersion) return RespStatus::kUnsupported;
  switch (h.op()) {
    case Op::kGet:
    case Op::kDel:
      return h.body_len == 8 ? RespStatus::kOk : RespStatus::kMalformed;
    case Op::kPut:
      return h.body_len == 16 ? RespStatus::kOk : RespStatus::kMalformed;
    case Op::kScan:
      return h.body_len == 12 ? RespStatus::kOk : RespStatus::kMalformed;
    case Op::kStats:
      return h.body_len == 0 ? RespStatus::kOk : RespStatus::kMalformed;
  }
  return RespStatus::kUnsupported;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (error_ != nullptr || n == 0) return;
  // Reclaim consumed prefix before it dominates the buffer: cheap amortized
  // compaction keeps the decoder O(live bytes) on long-lived connections.
  if (consumed_ > 4096 && consumed_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::HasCompleteFrame() const {
  if (error_ != nullptr) return false;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kHeaderBytes) return false;
  const uint32_t body_len = GetU32(buf_.data() + consumed_);
  return body_len <= kMaxBodyLen && avail >= kHeaderBytes + body_len;
}

FrameDecoder::Result FrameDecoder::Next(FrameHeader* header,
                                        const uint8_t** body) {
  if (error_ != nullptr) return Result::kError;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kHeaderBytes) return Result::kNeedMore;
  const uint8_t* p = buf_.data() + consumed_;
  FrameHeader h;
  h.body_len = GetU32(p);
  h.version = p[4];
  h.code = p[5];
  h.echo_op = p[6];
  h.request_id = GetU64(p + 8);
  if (h.body_len > kMaxBodyLen) {
    // Past this point the stream offers no way to find the next frame
    // boundary; the caller must close the connection.
    error_ = "frame body length exceeds kMaxBodyLen";
    return Result::kError;
  }
  if (avail < kHeaderBytes + h.body_len) return Result::kNeedMore;
  *header = h;
  *body = p + kHeaderBytes;
  consumed_ += kHeaderBytes + h.body_len;
  return Result::kFrame;
}

}  // namespace server
}  // namespace alt
