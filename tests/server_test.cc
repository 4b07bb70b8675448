/// \file
/// \brief Serving-stack tests: frame codec roundtrips, a malformed-input
/// corpus against the FrameDecoder and a live server, and loopback
/// integration runs (KvClient + the loadgen core against an in-process
/// KvServer). The wire format under test is docs/PROTOCOL.md.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "datasets/dataset.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/server.h"

namespace alt {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Protocol, HeaderLayoutMatchesSpec) {
  // docs/PROTOCOL.md pins the exact bytes; this test is the executable spec.
  std::vector<uint8_t> buf;
  AppendGet(&buf, 0x1122334455667788ull, 0xAABBCCDDEEFF0011ull);
  ASSERT_EQ(buf.size(), kHeaderBytes + 8u);
  EXPECT_EQ(GetU32(buf.data()), 8u);            // body_len, LE
  EXPECT_EQ(buf[4], kProtocolVersion);          // version
  EXPECT_EQ(buf[5], 0x01);                      // Op::kGet
  EXPECT_EQ(buf[6], 0x00);                      // echo_op unused in requests
  EXPECT_EQ(buf[7], 0x00);                      // reserved
  EXPECT_EQ(GetU64(buf.data() + 8), 0x1122334455667788ull);
  EXPECT_EQ(GetU64(buf.data() + kHeaderBytes), 0xAABBCCDDEEFF0011ull);
}

TEST(Protocol, EncodersWriteGoldenBytes) {
  // Every encoder, byte for byte, on a non-empty buffer: the word-at-a-time
  // writers must keep the wire format of docs/PROTOCOL.md exactly.
  constexpr uint64_t kId = 0x0102030405060708ull;
  constexpr Key kKey = 0x1112131415161718ull;
  constexpr Value kValue = 0x2122232425262728ull;
  constexpr uint32_t kCount = 0x31323334u;
  static const std::pair<Key, Value> kPairs[] = {
      {0x4142434445464748ull, 0x5152535455565758ull}, {1, 2}};
  using Encode = void (*)(std::vector<uint8_t>*);
  const std::vector<std::pair<Encode, std::string>> golden = {
      {[](std::vector<uint8_t>* out) { AppendGet(out, kId, kKey); },
       "080000000101000008070605040302011817161514131211"},
      {[](std::vector<uint8_t>* out) { AppendPut(out, kId, kKey, kValue); },
       "1000000001020000080706050403020118171615141312112827262524232221"},
      {[](std::vector<uint8_t>* out) { AppendDel(out, kId, kKey); },
       "080000000103000008070605040302011817161514131211"},
      {[](std::vector<uint8_t>* out) { AppendScan(out, kId, kKey, kCount); },
       "0c000000010400000807060504030201181716151413121134333231"},
      {[](std::vector<uint8_t>* out) { AppendStats(out, kId); },
       "00000000010500000807060504030201"},
      {[](std::vector<uint8_t>* out) { AppendValueResponse(out, kId, kValue); },
       "080000000180010008070605040302012827262524232221"},
      {[](std::vector<uint8_t>* out) {
         AppendStatusResponse(out, kId, RespStatus::kNotFound, 0x03);
       },
       "00000000018103000807060504030201"},
      {[](std::vector<uint8_t>* out) { AppendPutResponse(out, kId, true); },
       "0100000001800200080706050403020101"},
      {[](std::vector<uint8_t>* out) { AppendScanResponse(out, kId, kPairs, 2); },
       "240000000180040008070605040302010200000048474645444342415857565554535251"
       "01000000000000000200000000000000"},
      {[](std::vector<uint8_t>* out) { AppendStatsResponse(out, kId, "{}"); },
       "020000000180050008070605040302017b7d"},
  };
  for (size_t i = 0; i < golden.size(); ++i) {
    std::vector<uint8_t> buf = {0xee};  // appends must not touch earlier bytes
    golden[i].first(&buf);
    std::string hex;
    for (size_t b = 1; b < buf.size(); ++b) {
      static const char kDigits[] = "0123456789abcdef";
      hex += kDigits[buf[b] >> 4];
      hex += kDigits[buf[b] & 15];
    }
    EXPECT_EQ(buf[0], 0xee) << "frame " << i;
    EXPECT_EQ(hex, golden[i].second) << "frame " << i;
  }
  EXPECT_EQ(GetU32(reinterpret_cast<const uint8_t*>("\x34\x33\x32\x31")), kCount);
  const uint8_t le[] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(GetU64(le), kId);
}

TEST(Protocol, RequestRoundtripsThroughDecoder) {
  std::vector<uint8_t> buf;
  AppendGet(&buf, 1, 42);
  AppendPut(&buf, 2, 43, 430);
  AppendDel(&buf, 3, 44);
  AppendScan(&buf, 4, 45, 17);
  AppendStats(&buf, 5);

  FrameDecoder dec;
  dec.Feed(buf.data(), buf.size());

  FrameHeader h;
  const uint8_t* body = nullptr;
  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kGet);
  EXPECT_EQ(h.request_id, 1u);
  EXPECT_EQ(GetU64(body), 42u);
  EXPECT_EQ(ValidateRequest(h), RespStatus::kOk);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kPut);
  EXPECT_EQ(GetU64(body), 43u);
  EXPECT_EQ(GetU64(body + 8), 430u);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kDel);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kScan);
  EXPECT_EQ(GetU64(body), 45u);
  EXPECT_EQ(GetU32(body + 8), 17u);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kStats);
  EXPECT_EQ(h.body_len, 0u);

  EXPECT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kNeedMore);
}

TEST(Protocol, ResponseRoundtripsThroughDecodeResponse) {
  std::vector<uint8_t> buf;
  AppendValueResponse(&buf, 7, 0xDEADull);
  AppendPutResponse(&buf, 8, true);
  AppendStatusResponse(&buf, 9, RespStatus::kNotFound,
                       static_cast<uint8_t>(Op::kGet));
  const std::pair<Key, Value> pairs[2] = {{1, 10}, {2, 20}};
  AppendScanResponse(&buf, 10, pairs, 2);
  AppendStatsResponse(&buf, 11, "{\"x\":1}");

  FrameDecoder dec;
  dec.Feed(buf.data(), buf.size());
  FrameHeader h;
  const uint8_t* body = nullptr;
  Response r;

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(h.is_response());
  ASSERT_TRUE(DecodeResponse(h, body, &r));
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.status, RespStatus::kOk);
  EXPECT_EQ(r.value, 0xDEADull);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(h, body, &r));
  EXPECT_TRUE(r.created);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(h, body, &r));
  EXPECT_EQ(r.status, RespStatus::kNotFound);

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(h, body, &r));
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[0], (std::pair<Key, Value>{1, 10}));
  EXPECT_EQ(r.pairs[1], (std::pair<Key, Value>{2, 20}));

  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(h, body, &r));
  EXPECT_EQ(r.json, "{\"x\":1}");
}

TEST(Protocol, DecoderReassemblesFramesSplitAcrossFeeds) {
  std::vector<uint8_t> buf;
  AppendPut(&buf, 99, 1234, 5678);
  // Feed one byte at a time: header split, body split, every boundary hit.
  FrameDecoder dec;
  FrameHeader h;
  const uint8_t* body = nullptr;
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kNeedMore)
        << "frame completed early at byte " << i;
    dec.Feed(&buf[i], 1);
  }
  ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
  EXPECT_EQ(h.op(), Op::kPut);
  EXPECT_EQ(h.request_id, 99u);
  EXPECT_EQ(GetU64(body), 1234u);
  EXPECT_EQ(GetU64(body + 8), 5678u);
}

TEST(Protocol, DecoderCompactionSurvivesManyFrames) {
  // Push enough traffic through one decoder to force several internal
  // compactions; every frame must still come out intact and in order.
  FrameDecoder dec;
  FrameHeader h;
  const uint8_t* body = nullptr;
  std::vector<uint8_t> buf;
  for (uint64_t i = 0; i < 5000; ++i) {
    buf.clear();
    AppendGet(&buf, i, i * 3);
    dec.Feed(buf.data(), buf.size());
    ASSERT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kFrame);
    ASSERT_EQ(h.request_id, i);
    ASSERT_EQ(GetU64(body), i * 3);
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Malformed-input corpus (decoder level)
// ---------------------------------------------------------------------------

TEST(ProtocolMalformed, TruncatedHeaderIsNeedMoreNotError) {
  // 15 of 16 header bytes: the decoder must wait, not reject.
  std::vector<uint8_t> buf;
  AppendStats(&buf, 1);
  FrameDecoder dec;
  dec.Feed(buf.data(), kHeaderBytes - 1);
  FrameHeader h;
  const uint8_t* body = nullptr;
  EXPECT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kNeedMore);
}

TEST(ProtocolMalformed, OversizedBodyLenIsUnrecoverable) {
  std::vector<uint8_t> buf;
  AppendHeader(&buf, static_cast<uint8_t>(Op::kGet), 1, kMaxBodyLen + 1);
  FrameDecoder dec;
  dec.Feed(buf.data(), buf.size());
  FrameHeader h;
  const uint8_t* body = nullptr;
  EXPECT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kError);
  EXPECT_NE(dec.error(), nullptr);
  // Sticky: more input cannot resynchronize a length-prefixed stream.
  uint8_t junk[32] = {0};
  dec.Feed(junk, sizeof(junk));
  EXPECT_EQ(dec.Next(&h, &body), FrameDecoder::Result::kError);
}

TEST(ProtocolMalformed, ValidationRejectsBadFrames) {
  FrameHeader h{};
  h.version = kProtocolVersion;

  h.code = static_cast<uint8_t>(Op::kGet);
  h.body_len = 7;  // GET needs exactly 8
  EXPECT_EQ(ValidateRequest(h), RespStatus::kMalformed);
  h.body_len = 8;
  EXPECT_EQ(ValidateRequest(h), RespStatus::kOk);

  h.code = 0x7F;  // unknown opcode
  EXPECT_EQ(ValidateRequest(h), RespStatus::kUnsupported);

  h.code = static_cast<uint8_t>(Op::kPut);
  h.body_len = 16;
  h.version = 2;  // future protocol version
  EXPECT_EQ(ValidateRequest(h), RespStatus::kUnsupported);
}

// ---------------------------------------------------------------------------
// Live server fixture
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  static constexpr size_t kKeys = 20000;

  void StartServer(ServerOptions opt = ServerOptions{}) {
    opt.port = 0;  // ephemeral
    server_ = std::make_unique<KvServer>(opt);
    keys_ = GenerateKeys(Dataset::kFb, kKeys, /*seed=*/99);
    std::vector<Value> values(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) values[i] = ValueFor(keys_[i]);
    ASSERT_TRUE(server_->Preload(keys_.data(), values.data(), keys_.size()).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  Status Connect(KvClient* c) {
    return c->Connect("127.0.0.1", server_->port(), /*retry_for_ms=*/2000);
  }

  std::unique_ptr<KvServer> server_;
  std::vector<Key> keys_;
};

TEST_F(ServerTest, BasicOpsRoundtrip) {
  StartServer();
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  Value v = 0;
  bool found = false;
  ASSERT_TRUE(c.Get(keys_[123], &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, ValueFor(keys_[123]));

  ASSERT_TRUE(c.Get(keys_[0] - 1, &v, &found).ok());
  EXPECT_FALSE(found);

  bool created = false;
  const Key nk = 0xF100000000000000ull;
  ASSERT_TRUE(c.Put(nk, 777, &created).ok());
  EXPECT_TRUE(created);
  ASSERT_TRUE(c.Get(nk, &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 777u);
  ASSERT_TRUE(c.Put(nk, 778, &created).ok());  // upsert
  EXPECT_FALSE(created);

  bool existed = false;
  ASSERT_TRUE(c.Del(nk, &existed).ok());
  EXPECT_TRUE(existed);
  ASSERT_TRUE(c.Get(nk, &v, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(c.Del(nk, &existed).ok());
  EXPECT_FALSE(existed);

  std::vector<std::pair<Key, Value>> pairs;
  ASSERT_TRUE(c.Scan(keys_[100], 10, &pairs).ok());
  ASSERT_EQ(pairs.size(), 10u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, keys_[100 + i]);
    EXPECT_EQ(pairs[i].second, ValueFor(keys_[100 + i]));
  }

  std::string json;
  ASSERT_TRUE(c.Stats(&json).ok());
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_flushes\""), std::string::npos);
}

TEST_F(ServerTest, PipelinedResponsesArriveInRequestOrder) {
  StartServer();
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Interleave GETs with batch-flushing ops (PUT/SCAN) so coalescing cannot
  // reorder responses without this test noticing.
  std::vector<uint64_t> ids;
  for (int round = 0; round < 20; ++round) {
    ids.push_back(c.QueueGet(keys_[static_cast<size_t>(round) * 7]));
    ids.push_back(c.QueueGet(keys_[static_cast<size_t>(round) * 11]));
    ids.push_back(c.QueuePut(0xF200000000000000ull + round, round));
    ids.push_back(c.QueueScan(keys_[0], 3));
  }
  ASSERT_TRUE(c.Flush().ok());
  for (uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(c.ReceiveResponse(&r).ok());
    EXPECT_EQ(r.request_id, id);  // in-order per connection
    EXPECT_EQ(r.status, RespStatus::kOk);
  }
}

TEST_F(ServerTest, ErrorResponsesDoNotOvertakeCoalescedGets) {
  StartServer();
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Two GETs are sitting in the coalescing batch when the unknown-opcode
  // frame is decoded; its error reply must flush them first, or a
  // positionally-matching client mis-attributes every later response.
  std::vector<uint8_t> raw;
  AppendGet(&raw, 1, keys_[10]);
  AppendGet(&raw, 2, keys_[20]);
  AppendHeader(&raw, 0x6E, /*request_id=*/3, /*body_len=*/0);
  AppendGet(&raw, 4, keys_[30]);
  ASSERT_EQ(send(c.fd(), raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));

  Response r;
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 1u);
  EXPECT_EQ(r.status, RespStatus::kOk);
  EXPECT_EQ(r.value, ValueFor(keys_[10]));
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 2u);
  EXPECT_EQ(r.status, RespStatus::kOk);
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 3u);
  EXPECT_EQ(r.status, RespStatus::kUnsupported);
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 4u);
  EXPECT_EQ(r.status, RespStatus::kOk);
}

TEST_F(ServerTest, RevisitWorkIsNotDelayedByEpollTimeout) {
  ServerOptions opt;
  opt.max_frames_per_drain = 4;
  StartServer(opt);
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) c.QueueGet(keys_[static_cast<size_t>(i)]);
  const uint64_t t0 = NowNanos();
  ASSERT_TRUE(c.Flush().ok());
  Response r;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.ReceiveResponse(&r).ok());
    EXPECT_EQ(r.status, RespStatus::kOk);
  }
  // 64 frames at 4 per drain = 16 revisit cycles. If each revisit waited out
  // the 200ms epoll timeout (ET gives no kernel event for already-read
  // bytes) this would take >3s; with zero-timeout revisit polling it is
  // milliseconds. The bound leaves ample slack for slow CI.
  EXPECT_LT(NowNanos() - t0, 1500ull * 1000000ull);
}

// Under EPOLLET the server takes a short recv as proof that the socket is
// drained (DESIGN.md §13.2). When the frames and the client's FIN arrive
// before the worker polls, one event reports both and no later edge comes,
// so the server must read on to the EOF: every frame is answered, then the
// connection closes. A burst of SCANs on a second connection keeps the one
// worker busy while the frames and the FIN land.
TEST_F(ServerTest, PipelinedFramesThenShutdownAreAllAnsweredThenEof) {
  ServerOptions opt;
  opt.num_workers = 1;
  StartServer(opt);
  KvClient busy;
  ASSERT_TRUE(Connect(&busy).ok());
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());
  timeval tv{};
  tv.tv_sec = 5;  // a server that missed the EOF fails the test, not hangs it
  ASSERT_EQ(setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  // Both connections are adopted before the burst starts.
  Value v = 0;
  bool found = false;
  ASSERT_TRUE(busy.Get(keys_[0], &v, &found).ok());
  ASSERT_TRUE(c.Get(keys_[0], &v, &found).ok());

  constexpr int kScans = 100;
  for (int i = 0; i < kScans; ++i) busy.QueueScan(keys_[static_cast<size_t>(i)], 1000);
  ASSERT_TRUE(busy.Flush().ok());

  constexpr uint64_t kFrames = 40;
  std::vector<uint8_t> raw;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    if (id % 10 == 0) {
      AppendPut(&raw, id, 0xF300000000000000ull + id, id);
    } else {
      AppendGet(&raw, id, keys_[id]);
    }
  }
  ASSERT_EQ(send(c.fd(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  ASSERT_EQ(shutdown(c.fd(), SHUT_WR), 0);

  Response r;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    ASSERT_TRUE(c.ReceiveResponse(&r).ok()) << "response " << id;
    EXPECT_EQ(r.request_id, id);
    EXPECT_EQ(r.status, RespStatus::kOk);
    if (id % 10 != 0) EXPECT_EQ(r.value, ValueFor(keys_[id]));
  }
  uint8_t byte = 0;
  EXPECT_EQ(recv(c.fd(), &byte, 1, 0), 0) << "no EOF: the server kept the connection open";
  for (int i = 0; i < kScans; ++i) {
    ASSERT_TRUE(busy.ReceiveResponse(&r).ok());
    EXPECT_EQ(r.status, RespStatus::kOk);
  }
}

// Frames that trickle in a few bytes at a time end every server read short;
// each later chunk must still raise the edge that gets it read.
TEST_F(ServerTest, FramesSplitAcrossManySmallWritesAreAllAnswered) {
  StartServer();
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  constexpr uint64_t kFrames = 24;
  std::vector<uint8_t> raw;
  for (uint64_t id = 1; id <= kFrames; ++id) AppendGet(&raw, id, keys_[id * 3]);
  constexpr size_t kChunk = 5;  // straddles every header and body boundary
  for (size_t off = 0; off < raw.size(); off += kChunk) {
    const size_t len = std::min(kChunk, raw.size() - off);
    ASSERT_EQ(send(c.fd(), raw.data() + off, len, 0), static_cast<ssize_t>(len));
    if ((off / kChunk) % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));  // some land alone
    }
  }
  Response r;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    ASSERT_TRUE(c.ReceiveResponse(&r).ok()) << "response " << id;
    EXPECT_EQ(r.request_id, id);
    EXPECT_EQ(r.status, RespStatus::kOk);
    EXPECT_EQ(r.value, ValueFor(keys_[id * 3]));
  }
}

TEST_F(ServerTest, MalformedFramesGetErrorResponses) {
  StartServer();
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Unknown opcode with valid header: server answers kUnsupported, stays up.
  std::vector<uint8_t> raw;
  AppendHeader(&raw, 0x6E, /*request_id=*/5, /*body_len=*/0);
  ASSERT_EQ(send(c.fd(), raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  Response r;
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.status, RespStatus::kUnsupported);

  // Bad body size: kMalformed, then the server closes the connection (it
  // cannot trust the stream framing after a contract violation).
  raw.clear();
  AppendHeader(&raw, static_cast<uint8_t>(Op::kGet), 6, 4);
  PutU32(&raw, 42);
  ASSERT_EQ(send(c.fd(), raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 6u);
  EXPECT_EQ(r.status, RespStatus::kMalformed);
  EXPECT_FALSE(c.ReceiveResponse(&r).ok());  // connection closed

  // Oversized length prefix: undecodable → kMalformed (id 0) and close. A
  // valid GET coalesced just before must still be answered first.
  KvClient c2;
  ASSERT_TRUE(Connect(&c2).ok());
  raw.clear();
  AppendGet(&raw, 7, keys_[2]);
  AppendHeader(&raw, static_cast<uint8_t>(Op::kGet), 8, kMaxBodyLen + 1);
  ASSERT_EQ(send(c2.fd(), raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  ASSERT_TRUE(c2.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.status, RespStatus::kOk);
  ASSERT_TRUE(c2.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.request_id, 0u);
  EXPECT_EQ(r.status, RespStatus::kMalformed);
  EXPECT_FALSE(c2.ReceiveResponse(&r).ok());

  // The server survived all of it.
  KvClient c3;
  ASSERT_TRUE(Connect(&c3).ok());
  Value v = 0;
  bool found = false;
  ASSERT_TRUE(c3.Get(keys_[1], &v, &found).ok());
  EXPECT_TRUE(found);

  const ServerStats stats = server_->CollectStats();
  EXPECT_GE(stats.malformed, 2u);
}

TEST_F(ServerTest, ScanCountClampAndStatsOpcode) {
  ServerOptions opt;
  opt.max_scan_count = 8;
  StartServer(opt);
  KvClient c;
  ASSERT_TRUE(Connect(&c).ok());

  c.QueueScan(keys_[0], 9);  // over the per-server clamp
  ASSERT_TRUE(c.Flush().ok());
  Response r;
  ASSERT_TRUE(c.ReceiveResponse(&r).ok());
  EXPECT_EQ(r.status, RespStatus::kTooLarge);

  std::vector<std::pair<Key, Value>> pairs;
  ASSERT_TRUE(c.Scan(keys_[0], 8, &pairs).ok());
  EXPECT_EQ(pairs.size(), 8u);
}

TEST_F(ServerTest, LoopbackLoadgenClosedLoopZeroFailures) {
  ServerOptions opt;
  opt.num_workers = 2;
  opt.sharded.num_shards = 2;
  StartServer(opt);

  LoadgenOptions lg;
  lg.port = server_->port();
  lg.threads = 2;
  lg.connections_per_thread = 3;
  lg.ops = 20000;
  lg.pipeline = 8;
  lg.put_pct = 5;
  lg.del_pct = 2;
  lg.scan_pct = 5;
  lg.keyspace = kKeys;  // must match the fixture's preload
  lg.seed = 99;

  const LoadgenResult res = RunLoadgen(lg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.ops_completed, lg.ops);
  EXPECT_EQ(res.failed_ops, 0u);
  EXPECT_GT(res.latency.Percentile(0.999), 0u);

  // Pipelined connections must actually coalesce (the tentpole's point):
  // mean LookupBatch occupancy strictly above scalar.
  const ServerStats stats = server_->CollectStats();
  EXPECT_GT(stats.batch_flushes, 0u);
  EXPECT_GT(stats.mean_batch_occupancy(), 1.0);
  // ops + the STATS frame RunLoadgen itself sends to snapshot the server.
  EXPECT_EQ(stats.frames_in, lg.ops + 1);
  // The flush totals are the occupancy histogram's mass and first moment.
  uint64_t flushes = 0, keys = 0;
  for (size_t n = 0; n < stats.occupancy_hist.size(); ++n) {
    flushes += stats.occupancy_hist[n];
    keys += n * stats.occupancy_hist[n];
  }
  EXPECT_EQ(stats.batch_flushes, flushes);
  EXPECT_EQ(stats.batch_keys, keys);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_NE(server_->StatsJson().find("\"worker_failures\":0"), std::string::npos);
}

TEST_F(ServerTest, LoopbackLoadgenOpenLoopCompletes) {
  StartServer();
  LoadgenOptions lg;
  lg.port = server_->port();
  lg.threads = 1;
  lg.connections_per_thread = 2;
  lg.ops = 5000;
  lg.open_loop = true;
  lg.rate_ops_per_sec = 50000;
  lg.keyspace = kKeys;
  lg.seed = 99;

  const LoadgenResult res = RunLoadgen(lg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.ops_completed, lg.ops);
  EXPECT_EQ(res.failed_ops, 0u);
}

TEST_F(ServerTest, BatchSizeOneIsScalarBaseline) {
  ServerOptions opt;
  opt.batch_size = 1;
  StartServer(opt);

  LoadgenOptions lg;
  lg.port = server_->port();
  lg.threads = 1;
  lg.connections_per_thread = 2;
  lg.ops = 4000;
  lg.put_pct = 0;
  lg.scan_pct = 0;
  lg.keyspace = kKeys;
  lg.seed = 99;

  const LoadgenResult res = RunLoadgen(lg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.failed_ops, 0u);
  const ServerStats stats = server_->CollectStats();
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy(), 1.0);
}

TEST_F(ServerTest, StatsAfterStopCountTheFramesServed) {
  // alt_server prints its final STATS line after Stop(): the counters of the
  // joined workers must survive it.
  ServerOptions opt;
  opt.num_workers = 2;
  StartServer(opt);
  constexpr int kGets = 50;
  {
    KvClient c;
    ASSERT_TRUE(Connect(&c).ok());
    for (int i = 0; i < kGets; ++i) {
      Value v = 0;
      bool found = false;
      ASSERT_TRUE(c.Get(keys_[static_cast<size_t>(i)], &v, &found).ok());
      ASSERT_TRUE(found);
    }
  }
  server_->Stop();
  const ServerStats st = server_->CollectStats();
  EXPECT_EQ(st.frames_in, static_cast<uint64_t>(kGets));
  EXPECT_EQ(st.responses_out, static_cast<uint64_t>(kGets));
  EXPECT_EQ(st.batch_keys, static_cast<uint64_t>(kGets));
  EXPECT_EQ(st.open_connections, 0u);
  EXPECT_NE(server_->StatsJson().find("\"frames_in\":" + std::to_string(kGets)),
            std::string::npos);
  // One GET in flight at a time: each arrives alone and is read by one short
  // recv, with no recv that only returns EAGAIN. The slack covers the first
  // cycle's read, one stale edge and the EOF.
  EXPECT_GT(st.epoll_waits, 0u);
  EXPECT_GE(st.send_calls, static_cast<uint64_t>(kGets));
  EXPECT_GE(st.recv_calls, static_cast<uint64_t>(kGets));
  EXPECT_LE(st.recv_calls, static_cast<uint64_t>(kGets) + 3);
  for (const char* field : {"\"epoll_waits\":", "\"recv_calls\":", "\"send_calls\":"}) {
    EXPECT_NE(server_->StatsJson().find(field), std::string::npos) << field;
  }
  server_->Stop();  // idempotent: nothing counted twice
  EXPECT_EQ(server_->CollectStats().frames_in, static_cast<uint64_t>(kGets));
}

TEST_F(ServerTest, LoadgenSeedFixesTheOpStream) {
  StartServer();
  auto run = [&](uint64_t seed) {
    LoadgenOptions lg;
    lg.port = server_->port();
    lg.threads = 2;
    lg.connections_per_thread = 2;
    lg.ops = 2000;
    lg.put_pct = 10;
    lg.scan_pct = 10;
    lg.keyspace = kKeys;
    lg.seed = seed;
    const LoadgenResult res = RunLoadgen(lg);
    EXPECT_TRUE(res.ok) << res.error;
    // --seed also names the keyset: only the fixture's seed matches the
    // preload, so only its runs must be free of GET misses.
    if (seed == 99) {
      EXPECT_EQ(res.failed_ops, 0u);
    }
    return res.op_digest;
  };
  const uint64_t a = run(99);
  EXPECT_EQ(run(99), a);
  EXPECT_NE(run(100), a);
}

TEST_F(ServerTest, LowRateOpenLoopDoesNotSpin) {
  // 2000 ops/s on one thread: 500 us between arrivals, below the old
  // millisecond poll timeout that rounded every such wait to a busy poll.
  StartServer();
  LoadgenOptions lg;
  lg.port = server_->port();
  lg.threads = 1;
  lg.connections_per_thread = 1;
  lg.ops = 1000;
  lg.open_loop = true;
  lg.rate_ops_per_sec = 2000;
  lg.put_pct = 0;
  lg.scan_pct = 0;
  lg.keyspace = kKeys;
  lg.seed = 99;

  auto cpu_seconds = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  };
  const double cpu0 = cpu_seconds();
  const LoadgenResult res = RunLoadgen(lg);
  const double cpu = cpu_seconds() - cpu0;
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.ops_completed, lg.ops);
  ASSERT_GT(res.seconds, 0.3);
  // Server and generator together, in this process: well under one core.
  EXPECT_LT(cpu / res.seconds, 0.5) << cpu << " s CPU over " << res.seconds << " s";
}

TEST_F(ServerTest, StopIsIdempotentAndRestartableProcessWide) {
  StartServer();
  const uint16_t port = server_->port();
  server_->Stop();
  server_->Stop();  // idempotent

  // A fresh server can bind immediately (SO_REUSEADDR) on a new socket.
  ServerOptions opt;
  opt.port = port;
  KvServer again(opt);
  ASSERT_TRUE(again.Start().ok());
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", again.port(), 2000).ok());
  bool created = false;
  ASSERT_TRUE(c.Put(1, 2, &created).ok());
  EXPECT_TRUE(created);
}

}  // namespace
}  // namespace server
}  // namespace alt
