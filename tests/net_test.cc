// Network serving edge tests: wire codec round-trips (property-style,
// random frames refed in random chunks), malformed-frame rejection
// (truncated, bad magic/version/type/reserved, checksum flip,
// oversized length), the epoll server against real loopback sockets
// (slow-loris partial writes, garbage streams, admission control and
// load shedding as explicit error frames), and the acceptance-criteria
// bit-identity: a QueryRouter over RemoteClients to a fleet of
// wire-protocol servers returns rankings FNV-identical to the
// in-process node / cluster on the same store and query mix, and
// degrades, trips, probes and recovers a dead owner through the same
// breaker as the in-process cluster.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/query_router.h"
#include "cluster/sharded_cluster.h"
#include "net/client.h"
#include "net/netpoll.h"
#include "net/server.h"
#include "net/wire.h"
#include "pipeline/testbed.h"
#include "serving/frontend.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/hash.h"

namespace optselect {
namespace net {
namespace {

uint64_t RankHash(const std::vector<DocId>& ranking) {
  return util::Fnv1a64(ranking.data(), ranking.size() * sizeof(DocId));
}

// ------------------------------------------------------------ codec

TEST(WireCodecTest, RequestRoundTrip) {
  serving::Request request("jaguar classic cars", 42);
  std::string bytes = EncodeRequestFrame(request);
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()));
  ASSERT_TRUE(parser.HasFrame());
  Frame frame = parser.Next();
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.request_id, 42u);
  serving::Request decoded;
  ASSERT_TRUE(DecodeRequestPayload(frame, &decoded));
  EXPECT_EQ(decoded.query, "jaguar classic cars");
  EXPECT_EQ(decoded.id, 42u);
}

TEST(WireCodecTest, ResponseRoundTripPreservesEveryField) {
  serving::Response response;
  response.ok = true;
  response.degraded = true;
  response.hedged = false;
  response.diversified = true;
  response.cache_hit = true;
  response.batch_dedup = false;
  response.plan_served = true;
  response.streaming_served = false;
  response.num_specializations = 7;
  response.store_version = 0xdeadbeefcafeull;
  response.ranking = {3, 1, 4, 1, 5, 9, 2, 6};

  std::string bytes = EncodeResponseFrame(99, response);
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()));
  ASSERT_TRUE(parser.HasFrame());
  Frame frame = parser.Next();
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 99u);
  serving::Response decoded;
  ASSERT_TRUE(DecodeResponsePayload(frame, &decoded));
  EXPECT_EQ(decoded.ok, response.ok);
  EXPECT_EQ(decoded.degraded, response.degraded);
  EXPECT_EQ(decoded.hedged, response.hedged);
  EXPECT_EQ(decoded.diversified, response.diversified);
  EXPECT_EQ(decoded.cache_hit, response.cache_hit);
  EXPECT_EQ(decoded.batch_dedup, response.batch_dedup);
  EXPECT_EQ(decoded.plan_served, response.plan_served);
  EXPECT_EQ(decoded.streaming_served, response.streaming_served);
  EXPECT_EQ(decoded.num_specializations, response.num_specializations);
  EXPECT_EQ(decoded.store_version, response.store_version);
  EXPECT_EQ(decoded.ranking, response.ranking);
}

TEST(WireCodecTest, ErrorRoundTrip) {
  std::string bytes = EncodeErrorFrame(7, ErrorCode::kShed, "queue full");
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size()));
  ASSERT_TRUE(parser.HasFrame());
  Frame frame = parser.Next();
  EXPECT_EQ(frame.type, FrameType::kError);
  WireError error;
  ASSERT_TRUE(DecodeErrorPayload(frame, &error));
  EXPECT_EQ(error.code, ErrorCode::kShed);
  EXPECT_EQ(error.message, "queue full");
}

// Property-style: random frames, random chunking (1-byte feeds cover
// the slow-loris shape), every frame must come back bit-identical.
TEST(WireCodecTest, RandomFramesSurviveRandomChunking) {
  std::mt19937 rng(20260808);
  std::vector<Frame> sent;
  std::string stream;
  for (int i = 0; i < 100; ++i) {
    Frame frame;
    frame.type = static_cast<FrameType>(1 + rng() % 3);
    frame.flags = static_cast<uint16_t>(rng());
    frame.request_id = (static_cast<uint64_t>(rng()) << 32) | rng();
    size_t payload_len = rng() % 512;
    frame.payload.reserve(payload_len);
    for (size_t b = 0; b < payload_len; ++b) {
      frame.payload.push_back(static_cast<char>(rng() & 0xff));
    }
    stream += EncodeFrame(frame);
    sent.push_back(std::move(frame));
  }

  FrameParser parser;
  std::vector<Frame> received;
  size_t offset = 0;
  while (offset < stream.size()) {
    size_t chunk = 1 + rng() % 97;
    chunk = std::min(chunk, stream.size() - offset);
    ASSERT_TRUE(parser.Feed(stream.data() + offset, chunk));
    offset += chunk;
    while (parser.HasFrame()) received.push_back(parser.Next());
  }
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].type, sent[i].type);
    EXPECT_EQ(received[i].flags, sent[i].flags);
    EXPECT_EQ(received[i].request_id, sent[i].request_id);
    EXPECT_EQ(received[i].payload, sent[i].payload);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

// ------------------------------------------------------- malformed frames

TEST(WireCodecTest, TruncatedFrameIsNotAFrameYet) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  FrameParser parser;
  // Every strict prefix parses cleanly but yields nothing.
  ASSERT_TRUE(parser.Feed(bytes.data(), bytes.size() - 1));
  EXPECT_FALSE(parser.HasFrame());
  EXPECT_TRUE(parser.error().empty());
  // The last byte completes it.
  ASSERT_TRUE(parser.Feed(bytes.data() + bytes.size() - 1, 1));
  EXPECT_TRUE(parser.HasFrame());
}

TEST(WireCodecTest, BadMagicPoisonsTheStream) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  bytes[0] ^= 0x5a;
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(parser.error(), "bad magic");
  // Poisoned: even valid bytes are rejected afterwards.
  std::string good = EncodeRequestFrame(serving::Request("pear"));
  EXPECT_FALSE(parser.Feed(good.data(), good.size()));
}

TEST(WireCodecTest, BadVersionRejected) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  bytes[4] = 9;
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(parser.error(), "unsupported version");
}

TEST(WireCodecTest, UnknownTypeRejected) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  bytes[5] = 0;
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(parser.error(), "unknown frame type");
}

TEST(WireCodecTest, NonzeroReservedRejected) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  bytes[21] = 1;
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(parser.error(), "nonzero reserved field");
}

TEST(WireCodecTest, ChecksumFlipRejected) {
  // Flip one payload byte: header checks pass, checksum must not.
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  bytes[kHeaderSize] ^= 0x01;
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(parser.error(), "checksum mismatch");
}

TEST(WireCodecTest, OversizedLengthRejectedBeforeBuffering) {
  std::string bytes = EncodeRequestFrame(serving::Request("apple"));
  uint32_t huge = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  FrameParser parser;
  // Header alone is enough to reject: no waiting for a gigabyte.
  EXPECT_FALSE(parser.Feed(bytes.data(), kHeaderSize));
  EXPECT_EQ(parser.error(), "oversized payload length");
}

TEST(WireCodecTest, MalformedResponsePayloadsRejected) {
  Frame frame;
  frame.type = FrameType::kResponse;
  serving::Response out;
  // Too short for the fixed part.
  frame.payload = std::string(8, '\0');
  EXPECT_FALSE(DecodeResponsePayload(frame, &out));
  // Declared count disagrees with the actual bytes.
  serving::Response r;
  r.ok = true;
  r.ranking = {1, 2, 3};
  std::string encoded = EncodeResponseFrame(1, r);
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(encoded.data(), encoded.size()));
  Frame good = parser.Next();
  good.payload.resize(good.payload.size() - 4);  // drop one doc id
  EXPECT_FALSE(DecodeResponsePayload(good, &out));
}

TEST(WireEndpointTest, ParseEndpointForms) {
  Endpoint endpoint;
  ASSERT_TRUE(ParseEndpoint("10.1.2.3:8080", &endpoint));
  EXPECT_EQ(endpoint.host, "10.1.2.3");
  EXPECT_EQ(endpoint.port, 8080);
  ASSERT_TRUE(ParseEndpoint(":9090", &endpoint));
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_FALSE(ParseEndpoint("nohost", &endpoint));
  EXPECT_FALSE(ParseEndpoint("h:0", &endpoint));
  EXPECT_FALSE(ParseEndpoint("h:99999", &endpoint));

  std::vector<Endpoint> list;
  ASSERT_TRUE(ParseEndpointList("127.0.0.1:1234,127.0.0.1:1235", &list));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[1].port, 1235);
  EXPECT_FALSE(ParseEndpointList("127.0.0.1:1234,,", &list));
  EXPECT_FALSE(ParseEndpointList("", &list));
}

// ------------------------------------------------------------ fake server

/// Deterministic Frontend double: answers from the query bytes alone
/// (no store), optionally holding callbacks until released — that is
/// how the tests force a precise number of requests in flight.
class FakeFrontend : public serving::Frontend {
 public:
  explicit FakeFrontend(size_t hold_until = 0) : hold_until_(hold_until) {}

  static serving::Response Answer(const std::string& query) {
    serving::Response response;
    response.ok = true;
    response.diversified = true;
    response.store_version = 1;
    uint64_t h = util::Fnv1a64(query.data(), query.size());
    for (int i = 0; i < 5; ++i) {
      response.ranking.push_back(static_cast<DocId>((h >> (8 * i)) & 0xff));
    }
    return response;
  }

  serving::Response Submit(const serving::Request& request) override {
    return Answer(request.query);
  }

  bool SubmitAsync(serving::Request request,
                   std::function<void(serving::Response)> callback) override {
    if (reject_all_) return false;
    std::vector<std::pair<serving::Request, std::function<void(serving::Response)>>>
        release;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (hold_until_ > 0) {
        held_.emplace_back(std::move(request), std::move(callback));
        if (held_.size() >= hold_until_) {
          release.swap(held_);
        }
      } else {
        release.emplace_back(std::move(request), std::move(callback));
      }
    }
    for (auto& [req, cb] : release) cb(Answer(req.query));
    return true;
  }

  void set_reject_all(bool reject) { reject_all_ = reject; }

 private:
  size_t hold_until_;
  bool reject_all_ = false;
  std::mutex mu_;
  std::vector<std::pair<serving::Request, std::function<void(serving::Response)>>>
      held_;
};

/// Raw blocking TCP connection for adversarial byte-level tests.
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }
  bool Send(const char* data, size_t size) {
    size_t sent = 0;
    while (sent < size) {
      ssize_t n = send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) return false;
      if (n > 0) sent += static_cast<size_t>(n);
    }
    return true;
  }
  bool Send(const std::string& bytes) { return Send(bytes.data(), bytes.size()); }
  /// Reads until `parser` holds a frame or the peer closes; true on a
  /// frame, false on clean EOF.
  bool ReadFrame(FrameParser* parser, Frame* frame) {
    char buf[4096];
    while (!parser->HasFrame()) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (!parser->Feed(buf, static_cast<size_t>(n))) return false;
    }
    *frame = parser->Next();
    return true;
  }
  /// True when the peer closes the connection (possibly after sending
  /// bytes we do not care about).
  bool DrainUntilEof() {
    char buf[4096];
    while (true) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR) return false;
    }
  }
  int fd_ = -1;
};

NetServerConfig LoopbackConfig() {
  NetServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;  // ephemeral
  return config;
}

TEST(NetServerTest, ServesDeterministicAnswersOverLoopback) {
  FakeFrontend frontend;
  NetServer server(&frontend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();

  RemoteClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
      << client.last_error();
  for (const char* query : {"apple", "jaguar", "apple"}) {
    serving::Response remote = client.Submit(serving::Request(query));
    ASSERT_TRUE(remote.ok);
    serving::Response local = frontend.Submit(serving::Request(query));
    EXPECT_EQ(remote.ranking, local.ranking);
    EXPECT_EQ(remote.diversified, local.diversified);
    EXPECT_EQ(remote.store_version, local.store_version);
  }
  client.Close();
  server.Stop();
  NetServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServerTest, PipelinedAnswersMatchBlocking) {
  FakeFrontend frontend;
  NetServer server(&frontend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();

  std::vector<std::string> queries;
  for (int i = 0; i < 50; ++i) queries.push_back("query " + std::to_string(i));

  RemoteClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::vector<serving::Response> responses =
      client.SubmitPipelined(queries, /*window=*/8);
  ASSERT_EQ(responses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << "query " << i;
    EXPECT_EQ(responses[i].ranking, FakeFrontend::Answer(queries[i]).ranking);
  }
  server.Stop();
}

TEST(NetServerTest, SlowLorisPartialWritesStillAnswer) {
  FakeFrontend frontend;
  NetServer server(&frontend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string bytes = EncodeRequestFrame(serving::Request("slow", 5));
  // Dribble the frame one byte at a time: the server must wait for the
  // boundary, never over-read, never answer early.
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(conn.Send(bytes.data() + i, 1));
  }
  FrameParser parser;
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&parser, &frame));
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 5u);
  serving::Response response;
  ASSERT_TRUE(DecodeResponsePayload(frame, &response));
  EXPECT_EQ(response.ranking, FakeFrontend::Answer("slow").ranking);
  server.Stop();
}

TEST(NetServerTest, GarbageStreamGetsErrorFrameOrCloseAndServerSurvives) {
  FakeFrontend frontend;
  NetServer server(&frontend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();

  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string garbage(256, '\x5a');
    ASSERT_TRUE(conn.Send(garbage));
    // Contract: error frame and/or close — never a hang or crash.
    EXPECT_TRUE(conn.DrainUntilEof());
  }
  {
    // Checksum flip over the wire: same contract.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string bytes = EncodeRequestFrame(serving::Request("apple"));
    bytes[bytes.size() - 1] ^= 0x40;
    ASSERT_TRUE(conn.Send(bytes));
    EXPECT_TRUE(conn.DrainUntilEof());
  }
  {
    // Truncated frame then client close: just a close, not an error.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string bytes = EncodeRequestFrame(serving::Request("apple"));
    ASSERT_TRUE(conn.Send(bytes.data(), bytes.size() / 2));
  }
  // The server still serves well-formed traffic afterwards.
  RemoteClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  EXPECT_TRUE(client.Submit(serving::Request("after")).ok);
  server.Stop();
  EXPECT_EQ(server.stats().protocol_errors, 2u);
}

TEST(NetServerTest, ConnectionLimitShedsWithErrorFrame) {
  FakeFrontend frontend;
  NetServerConfig config = LoopbackConfig();
  config.max_connections = 1;
  NetServer server(&frontend, config);
  ASSERT_TRUE(server.Start()) << server.last_error();

  RemoteClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(first.Submit(serving::Request("hold")).ok);  // conn registered

  RawConn second;
  ASSERT_TRUE(second.Connect(server.port()));
  FrameParser parser;
  Frame frame;
  // The refusal is explicit: a shed error frame, then close.
  ASSERT_TRUE(second.ReadFrame(&parser, &frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  WireError error;
  ASSERT_TRUE(DecodeErrorPayload(frame, &error));
  EXPECT_EQ(error.code, ErrorCode::kShed);
  EXPECT_TRUE(second.DrainUntilEof());

  EXPECT_EQ(server.stats().connections_rejected, 1u);
  EXPECT_GE(server.stats().shed, 1u);
  server.Stop();
}

TEST(NetServerTest, PerConnectionInflightLimitShedsWithErrorFrame) {
  // Holds callbacks until 2 requests are in flight; the 3rd pipelined
  // request exceeds max_inflight_per_conn == 2 and must be shed with
  // an explicit error frame while the first two still answer.
  FakeFrontend frontend(/*hold_until=*/2);
  NetServerConfig config = LoopbackConfig();
  config.max_inflight_per_conn = 2;
  NetServer server(&frontend, config);
  ASSERT_TRUE(server.Start()) << server.last_error();

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  std::string burst;
  burst += EncodeRequestFrame(serving::Request("a", 1));
  burst += EncodeRequestFrame(serving::Request("b", 2));
  burst += EncodeRequestFrame(serving::Request("c", 3));
  ASSERT_TRUE(conn.Send(burst));

  FrameParser parser;
  size_t responses = 0, sheds = 0;
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    ASSERT_TRUE(conn.ReadFrame(&parser, &frame));
    if (frame.type == FrameType::kResponse) {
      ++responses;
    } else if (frame.type == FrameType::kError) {
      WireError error;
      ASSERT_TRUE(DecodeErrorPayload(frame, &error));
      EXPECT_EQ(error.code, ErrorCode::kShed);
      EXPECT_EQ(frame.request_id, 3u);  // the over-limit request
      ++sheds;
    }
  }
  EXPECT_EQ(responses, 2u);
  EXPECT_EQ(sheds, 1u);
  server.Stop();
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(NetServerTest, FrontendQueueRejectionShedsWithErrorFrame) {
  FakeFrontend frontend;
  frontend.set_reject_all(true);
  NetServer server(&frontend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();

  RemoteClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  serving::Response response = client.Submit(serving::Request("apple"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(client.last_error_code(), ErrorCode::kShed);
  // The connection stays usable after a shed.
  frontend.set_reject_all(false);
  EXPECT_TRUE(client.Submit(serving::Request("apple")).ok);
  server.Stop();
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(NetServerTest, ShedMetricIsRegistered) {
  obs::MetricsRegistry registry;
  FakeFrontend frontend;
  frontend.set_reject_all(true);
  NetServerConfig config = LoopbackConfig();
  config.registry = &registry;
  NetServer server(&frontend, config);
  ASSERT_TRUE(server.Start()) << server.last_error();

  RemoteClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(client.Submit(serving::Request("apple")).ok);
  client.Close();
  server.Stop();

  bool found = false;
  for (const auto& sample : registry.Collect()) {
    if (sample.name == "net_shed_total") {
      found = true;
      EXPECT_EQ(sample.value, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------- real store bit-identity

/// One wire server per shard slice (the partition `serve --shard-index`
/// uses) plus one connected RemoteClient per server: the remote fleet a
/// QueryRouter routes over.
struct RemoteFleet {
  /// Each shard's zero-copy view of the one image.
  std::vector<std::shared_ptr<const store::StoreSnapshot>> views;
  std::vector<std::unique_ptr<serving::ServingNode>> nodes;
  std::vector<std::unique_ptr<NetServer>> servers;
  std::vector<std::unique_ptr<RemoteClient>> clients;

  std::vector<serving::Frontend*> endpoints() const {
    std::vector<serving::Frontend*> out;
    for (const auto& client : clients) out.push_back(client.get());
    return out;
  }
};

class NetServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    auto image = store::MappedStoreFile::FromStore(*store_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    mapped_ = std::move(image).value();
  }
  static void TearDownTestSuite() {
    mapped_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static serving::ServingConfig NodeConfig() {
    serving::ServingConfig config;
    config.num_workers = 1;
    config.queue_capacity = 256;
    config.max_batch = 4;
    config.params.diversify.k = 10;
    return config;
  }

  static std::vector<std::string> Mix() {
    std::vector<std::string> mix;
    for (const auto& [key, entry] : store_->entries()) mix.push_back(key);
    std::sort(mix.begin(), mix.end());
    mix.push_back(testbed_->universe().noise_queries[0]);
    mix.push_back(testbed_->universe().noise_queries[1]);
    return mix;
  }

  /// Starts one server per shard slice and connects a client to each.
  static void StartFleet(size_t num_shards, RemoteFleet* fleet) {
    for (size_t i = 0; i < num_shards; ++i) {
      store::ShardFilter filter;
      filter.num_shards = num_shards;
      filter.shard_index = i;
      fleet->views.push_back(store::StoreSnapshot::MappedShard(
          mapped_, [filter](std::string_view key) {
            return filter.Keeps(key);
          }));
      fleet->nodes.push_back(std::make_unique<serving::ServingNode>(
          fleet->views.back(), testbed_, NodeConfig()));
      fleet->servers.push_back(std::make_unique<NetServer>(
          fleet->nodes.back().get(), LoopbackConfig()));
      ASSERT_TRUE(fleet->servers.back()->Start())
          << fleet->servers.back()->last_error();
      fleet->clients.push_back(std::make_unique<RemoteClient>());
      ASSERT_TRUE(fleet->clients.back()->Connect(
          "127.0.0.1", fleet->servers.back()->port()));
    }
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, what every node and the in-process
  /// cluster serve.
  static std::shared_ptr<const store::MappedStoreFile> mapped_;
};

pipeline::Testbed* NetServingTest::testbed_ = nullptr;
store::DiversificationStore* NetServingTest::store_ = nullptr;
std::shared_ptr<const store::MappedStoreFile> NetServingTest::mapped_;

TEST_F(NetServingTest, RemoteNodeBitIdenticalToLocalNode) {
  serving::ServingNode local(store::StoreSnapshot::FromMapped(mapped_),
                             testbed_, NodeConfig());
  serving::ServingNode backend(store::StoreSnapshot::FromMapped(mapped_),
                               testbed_, NodeConfig());
  NetServer server(&backend, LoopbackConfig());
  ASSERT_TRUE(server.Start()) << server.last_error();
  RemoteClient remote;
  ASSERT_TRUE(remote.Connect("127.0.0.1", server.port()));

  // Both are just Frontends to the callers.
  serving::Frontend* local_frontend = &local;
  serving::Frontend* remote_frontend = &remote;
  for (const std::string& query : Mix()) {
    serving::Response a = local_frontend->Submit(serving::Request(query));
    serving::Response b = remote_frontend->Submit(serving::Request(query));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(RankHash(a.ranking), RankHash(b.ranking)) << query;
    EXPECT_EQ(a.ranking, b.ranking);
    EXPECT_EQ(a.diversified, b.diversified);
    EXPECT_EQ(a.num_specializations, b.num_specializations);
  }
  remote.Close();
  server.Stop();
  local.Shutdown();
  backend.Shutdown();
}

TEST_F(NetServingTest, RemoteShardFleetBitIdenticalToInProcessCluster) {
  const size_t kShards = 2;
  // In-process reference cluster (pure hash partition, no replication).
  cluster::ClusterConfig cluster_config;
  cluster_config.num_shards = kShards;
  cluster_config.replicate_hot = 0;
  cluster_config.node = NodeConfig();
  cluster::ShardedCluster cluster(mapped_, testbed_, nullptr, cluster_config);

  RemoteFleet fleet;
  ASSERT_NO_FATAL_FAILURE(StartFleet(kShards, &fleet));
  cluster::QueryRouter remote(fleet.endpoints());
  for (const std::string& query : Mix()) {
    EXPECT_EQ(remote.OwnerOf(query), cluster.router().OwnerOf(query));
    serving::Response a = cluster.Submit(serving::Request(query));
    serving::Response b = remote.Submit(serving::Request(query));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(RankHash(a.ranking), RankHash(b.ranking)) << query;
    EXPECT_EQ(a.diversified, b.diversified);
    EXPECT_FALSE(b.degraded);
  }
  cluster::RouterStats rs = remote.stats();
  EXPECT_EQ(rs.degraded, 0u);
  EXPECT_EQ(rs.dropped, 0u);
  EXPECT_EQ(rs.retried, 0u);
  EXPECT_TRUE(remote.breaker_transitions().empty());
  for (auto& server : fleet.servers) server->Stop();
}

TEST_F(NetServingTest, DeadOwnerDegradesThenRecoversBitIdentical) {
  const size_t kShards = 2;
  RemoteFleet fleet;
  ASSERT_NO_FATAL_FAILURE(StartFleet(kShards, &fleet));
  cluster::FailoverConfig failover;
  failover.breaker_threshold = 2;
  failover.breaker_probe_after = 2;
  cluster::QueryRouter remote(fleet.endpoints(), {}, failover);

  // A stored query owned by shard 0 (the store is keyed normalized).
  std::string victim_query;
  for (const auto& [key, entry] : store_->entries()) {
    if (remote.OwnerOf(key) == 0) {
      victim_query = key;
      break;
    }
  }
  ASSERT_FALSE(victim_query.empty());
  auto victim_transitions = [&] {
    std::vector<cluster::BreakerTransition> out;
    for (const cluster::BreakerTransition& t : remote.breaker_transitions()) {
      EXPECT_EQ(t.shard, 0u) << "only the victim's breaker may move";
      out.push_back(t);
    }
    return out;
  };

  serving::Response healthy = remote.Submit(serving::Request(victim_query));
  ASSERT_TRUE(healthy.ok);
  ASSERT_TRUE(healthy.diversified);
  EXPECT_FALSE(healthy.degraded);
  uint64_t healthy_hash = RankHash(healthy.ranking);

  // Kill the owner: answers must degrade (passthrough from shard 1),
  // and the breaker must open after `breaker_threshold` failures — the
  // first on the dead connection, the second on the failed redial.
  uint16_t victim_port = fleet.servers[0]->port();
  fleet.servers[0]->Stop();
  fleet.servers[0].reset();
  fleet.nodes[0]->Shutdown();

  uint64_t degraded_hash = 0;
  for (size_t i = 0; i < 4; ++i) {
    serving::Response degraded = remote.Submit(serving::Request(victim_query));
    ASSERT_TRUE(degraded.ok);
    EXPECT_TRUE(degraded.degraded);
    EXPECT_FALSE(degraded.diversified);  // passthrough, not the entry
    degraded_hash = RankHash(degraded.ranking);
  }
  EXPECT_EQ(remote.shard_state(0), cluster::BreakerState::kOpen);
  std::vector<cluster::BreakerTransition> down = victim_transitions();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].from, cluster::BreakerState::kClosed);
  EXPECT_EQ(down[0].to, cluster::BreakerState::kOpen);
  EXPECT_EQ(remote.stats().breaker_opens, 1u);

  // Two requests skipped the open breaker; one more is the half-open
  // probe, whose failed redial re-opens it — counted as a second open.
  serving::Response probed = remote.Submit(serving::Request(victim_query));
  ASSERT_TRUE(probed.ok);
  EXPECT_TRUE(probed.degraded);
  cluster::RouterStats rs = remote.stats();
  EXPECT_EQ(rs.probes, 1u);
  EXPECT_EQ(rs.breaker_opens, 2u);
  EXPECT_EQ(rs.degraded, 5u);
  EXPECT_EQ(fleet.clients[0]->reconnects(), 0u) << "nothing to redial yet";

  // Respawn the shard on the same port: the next probe redials and the
  // answer is bit-identical to the pre-kill one.
  fleet.nodes[0] = std::make_unique<serving::ServingNode>(
      fleet.views[0], testbed_, NodeConfig());
  NetServerConfig respawn_config = LoopbackConfig();
  respawn_config.port = victim_port;
  fleet.servers[0] =
      std::make_unique<NetServer>(fleet.nodes[0].get(), respawn_config);
  ASSERT_TRUE(fleet.servers[0]->Start()) << fleet.servers[0]->last_error();

  bool recovered = false;
  for (size_t i = 0; i < 16 && !recovered; ++i) {
    serving::Response response = remote.Submit(serving::Request(victim_query));
    ASSERT_TRUE(response.ok);
    if (!response.degraded) {
      recovered = true;
      EXPECT_TRUE(response.diversified);
      EXPECT_EQ(RankHash(response.ranking), healthy_hash);
    } else {
      EXPECT_EQ(RankHash(response.ranking), degraded_hash);
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(remote.shard_state(0), cluster::BreakerState::kClosed);
  EXPECT_EQ(fleet.clients[0]->reconnects(), 1u);
  std::vector<cluster::BreakerTransition> log = victim_transitions();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[log.size() - 2].to, cluster::BreakerState::kHalfOpen);
  EXPECT_EQ(log.back().from, cluster::BreakerState::kHalfOpen);
  EXPECT_EQ(log.back().to, cluster::BreakerState::kClosed);
  EXPECT_EQ(remote.stats().dropped, 0u);
  for (auto& server : fleet.servers) {
    if (server) server->Stop();
  }
}

TEST_F(NetServingTest, ReplayMixDrivesARemoteClient) {
  serving::ServingNode backend(store::StoreSnapshot::FromMapped(mapped_),
                               testbed_, NodeConfig());
  NetServer server(&backend, LoopbackConfig());
  ASSERT_TRUE(server.Start());
  RemoteClient remote;
  ASSERT_TRUE(remote.Connect("127.0.0.1", server.port()));

  std::vector<std::string> mix = Mix();
  serving::ReplayOutcome outcome = serving::ReplayMix(&remote, mix);
  EXPECT_EQ(outcome.accepted, mix.size());
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace optselect
