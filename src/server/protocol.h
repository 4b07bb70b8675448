#pragma once

/// \file
/// \brief ALT wire protocol v1: length-prefixed, pipelined, binary frames
/// (docs/PROTOCOL.md is the normative spec; this header implements it).
///
/// Every frame — request or response — is a fixed 16-byte little-endian
/// header followed by `body_len` payload bytes:
///
///   offset  size  field
///        0     4  body_len    payload bytes after the header (<= kMaxBodyLen)
///        4     1  version     kProtocolVersion (1)
///        5     1  code        request opcode (high bit clear) or
///                             response status (high bit set)
///        6     1  echo_op     responses: the request's opcode (0 when the
///                             request could not be decoded); requests: zero
///        7     1  reserved    zero on send, ignored on receive
///        8     8  request_id  client-chosen, echoed verbatim in the response
///
/// Frames are independent and pipelined: a client may send any number of
/// requests before reading responses; the server answers each connection's
/// frames in arrival order. FrameDecoder below reassembles frames from
/// arbitrary byte chunks (partial reads, multiple frames per read), which is
/// the single decode path shared by server, client, load generator and tests.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/key_codec.h"

namespace alt {
namespace server {

constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kHeaderBytes = 16;
/// Upper bound on body_len: large enough for a max-size SCAN response
/// (4 + 1024*16 bytes), small enough that a corrupt length cannot balloon a
/// connection buffer. Oversized lengths are unrecoverable framing errors.
constexpr uint32_t kMaxBodyLen = 1u << 20;
/// SCAN count field is clamped here by the server (and validated by clients).
constexpr uint32_t kMaxScanCount = 1024;

/// Request opcodes (high bit clear).
enum class Op : uint8_t {
  kGet = 0x01,    ///< body: key(8)            -> kOk value(8) | kNotFound
  kPut = 0x02,    ///< body: key(8) value(8)   -> kOk created(1)   [upsert]
  kDel = 0x03,    ///< body: key(8)            -> kOk | kNotFound
  kScan = 0x04,   ///< body: start(8) count(4) -> kOk n(4) + n*(key,value)
  kStats = 0x05,  ///< body: empty             -> kOk utf-8 JSON blob
};

/// Response status codes (high bit set).
enum class RespStatus : uint8_t {
  kOk = 0x80,
  kNotFound = 0x81,     ///< GET/DEL of an absent key (not an error)
  kMalformed = 0x82,    ///< body size disagrees with the opcode; fatal
  kUnsupported = 0x83,  ///< unknown opcode or version; connection survives
  kTooLarge = 0x84,     ///< SCAN count above kMaxScanCount
  kServerError = 0x85,  ///< internal failure (e.g. upsert retry exhaustion)
};

struct FrameHeader {
  uint32_t body_len = 0;
  uint8_t version = kProtocolVersion;
  uint8_t code = 0;
  uint8_t echo_op = 0;
  uint64_t request_id = 0;

  Op op() const { return static_cast<Op>(code); }
  RespStatus status() const { return static_cast<RespStatus>(code); }
  bool is_response() const { return (code & 0x80u) != 0; }
};

/// Human-readable name of a response status ("ok", "not_found", ...).
const char* RespStatusName(RespStatus s);

// -- little-endian primitives (shared by encoders and payload readers) -------
//
// Whole words through memcpy: one load or store each, not a byte at a time.

/// `v` in wire (little-endian) byte order, and back: the identity on
/// little-endian hosts.
inline uint32_t WireOrder32(uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return __builtin_bswap32(v);
#else
  return v;
#endif
}

inline uint64_t WireOrder64(uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return __builtin_bswap64(v);
#else
  return v;
#endif
}

inline void StoreU32(uint8_t* p, uint32_t v) {
  v = WireOrder32(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void StoreU64(uint8_t* p, uint64_t v) {
  v = WireOrder64(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  StoreU32(out->data() + at, v);
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  StoreU64(out->data() + at, v);
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return WireOrder32(v);
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return WireOrder64(v);
}

// -- frame encoders ----------------------------------------------------------

/// Append a 16-byte header. `code` is an Op (requests) or RespStatus
/// (responses) value; `body_len` must match the bytes appended after it;
/// `echo_op` is the echoed request opcode on responses (0 on requests and on
/// responses to undecodable requests).
void AppendHeader(std::vector<uint8_t>* out, uint8_t code, uint64_t request_id,
                  uint32_t body_len, uint8_t echo_op = 0);

void AppendGet(std::vector<uint8_t>* out, uint64_t request_id, Key key);
void AppendPut(std::vector<uint8_t>* out, uint64_t request_id, Key key,
               Value value);
void AppendDel(std::vector<uint8_t>* out, uint64_t request_id, Key key);
void AppendScan(std::vector<uint8_t>* out, uint64_t request_id, Key start,
                uint32_t count);
void AppendStats(std::vector<uint8_t>* out, uint64_t request_id);

/// kOk GET response carrying the value.
void AppendValueResponse(std::vector<uint8_t>* out, uint64_t request_id,
                         Value value);
/// Bodyless response (kNotFound, kMalformed, ... and bodyless kOk for DEL).
/// `echo_op` is the request's opcode, or 0 when the request never decoded.
void AppendStatusResponse(std::vector<uint8_t>* out, uint64_t request_id,
                          RespStatus status, uint8_t echo_op = 0);
/// kOk PUT response carrying the created flag (1 = inserted, 0 = updated).
void AppendPutResponse(std::vector<uint8_t>* out, uint64_t request_id,
                       bool created);
/// kOk SCAN response: count + pairs.
void AppendScanResponse(std::vector<uint8_t>* out, uint64_t request_id,
                        const std::pair<Key, Value>* pairs, uint32_t n);
/// kOk STATS response carrying a JSON blob.
void AppendStatsResponse(std::vector<uint8_t>* out, uint64_t request_id,
                         const std::string& json);

// -- request validation ------------------------------------------------------

/// Classify a decoded request frame. Returns kOk when `h` is a well-formed
/// request whose body size matches its opcode; otherwise the error status the
/// server must answer with (kMalformed is fatal to the connection, the rest
/// keep it open — see docs/PROTOCOL.md §"Errors").
RespStatus ValidateRequest(const FrameHeader& h);

// -- incremental decoder -----------------------------------------------------

/// \brief Reassembles frames from an arbitrary byte stream.
///
/// Feed() appends whatever recv() produced; Next() yields complete frames in
/// order. A frame's body pointer stays valid until the next Feed/Next call.
/// kError is sticky and unrecoverable: a corrupt length or version leaves no
/// way to find the next frame boundary, so the connection must be closed
/// (docs/PROTOCOL.md §"Partial reads and resynchronization").
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< *header/*body filled with one complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< stream corrupt; see error()
  };

  void Feed(const uint8_t* data, size_t n);

  Result Next(FrameHeader* header, const uint8_t** body);

  /// Human-readable reason after kError, nullptr otherwise.
  const char* error() const { return error_; }

  /// True iff Next() would return kFrame right now (no state change). Lets
  /// the server revisit a connection whose decode was cut short by fairness
  /// or backpressure limits without waiting for another readability edge.
  bool HasCompleteFrame() const;

  /// Bytes buffered but not yet consumed by Next() (tests, backpressure).
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
  const char* error_ = nullptr;
};

}  // namespace server
}  // namespace alt
