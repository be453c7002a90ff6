// The compile-service building blocks that outlive the daemon: wire
// protocol framing and request codec, and the persistent
// content-addressed result cache (crash recovery, corruption, locking).
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sdf/diagnostics.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "util/fault.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kTinyGraph =
    "graph tiny\nactor A\nactor B\nedge A B 2 3\n";

/// A fresh scratch directory for one cache.
struct Scratch {
  std::string dir;

  Scratch() {
    static int counter = 0;
    dir = "/tmp/sdfsvc_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++);
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  [[nodiscard]] std::string cache_dir() const { return dir + "/cache"; }
};

/// Disarms fault injection when a test leaves scope, pass or fail.
struct FaultGuard {
  ~FaultGuard() { fault::clear(); }
};

CompileRequest tiny_request() {
  CompileRequest req;
  req.graph_text = std::string(kTinyGraph);
  return req;
}

// ---------------------------------------------------------------- framing

TEST(Protocol, FrameRoundTrip) {
  const std::string wire =
      encode_frame(FrameKind::kCompileRequest, "payload bytes");
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.kind, FrameKind::kCompileRequest);
  EXPECT_EQ(frame.payload, "payload bytes");
}

TEST(Protocol, DecodeIsIncremental) {
  const std::string wire = encode_frame(FrameKind::kPing, "tok");
  Frame frame;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(decode_frame(wire.substr(0, n), &frame, &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
  }
  EXPECT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kOk);
}

TEST(Protocol, RejectsBadMagicOnFirstDivergentByte) {
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame("GET / HTTP/1.1", &frame, &consumed),
            DecodeStatus::kBadMagic);
  // One wrong byte is enough — no need to buffer a full header.
  EXPECT_EQ(decode_frame("X", &frame, &consumed), DecodeStatus::kBadMagic);
}

TEST(Protocol, RejectsBadKindAndBadCrc) {
  std::string wire = encode_frame(FrameKind::kPong, "abc");
  Frame frame;
  std::size_t consumed = 0;

  std::string bad_kind = wire;
  bad_kind[7] = '\x63';  // kind byte well outside the enum
  EXPECT_EQ(decode_frame(bad_kind, &frame, &consumed),
            DecodeStatus::kBadKind);

  std::string bad_crc = wire;
  bad_crc.back() ^= 0x01;  // flip one payload byte; CRC now disagrees
  EXPECT_EQ(decode_frame(bad_crc, &frame, &consumed),
            DecodeStatus::kBadCrc);
}

TEST(Protocol, RejectsOversizedDeclaredLength) {
  std::string wire = encode_frame(FrameKind::kPing, "x");
  // Rewrite the length field to > kMaxPayloadBytes.
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  wire[8] = static_cast<char>(huge & 0xFF);
  wire[9] = static_cast<char>((huge >> 8) & 0xFF);
  wire[10] = static_cast<char>((huge >> 16) & 0xFF);
  wire[11] = static_cast<char>((huge >> 24) & 0xFF);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kTooLarge);
}

TEST(Protocol, CompileRequestRoundTrip) {
  CompileRequest req = tiny_request();
  req.options.order = OrderHeuristic::kApgan;
  req.options.optimizer = LoopOptimizer::kChainExact;
  req.options.allocation_order = FirstFitOrder::kByWidth;
  req.options.blocking_factor = 3;
  req.deadline_ms = 250;
  req.dp_mem_bytes = 1 << 20;

  const Result<CompileRequest> back =
      parse_compile_request(encode_compile_request(req));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().graph_text, req.graph_text);
  EXPECT_EQ(back.value().options.order, OrderHeuristic::kApgan);
  EXPECT_EQ(back.value().options.optimizer, LoopOptimizer::kChainExact);
  EXPECT_EQ(back.value().options.allocation_order, FirstFitOrder::kByWidth);
  EXPECT_EQ(back.value().options.blocking_factor, 3);
  EXPECT_EQ(back.value().deadline_ms, 250);
  EXPECT_EQ(back.value().dp_mem_bytes, 1 << 20);
  EXPECT_EQ(option_fingerprint(back.value()), option_fingerprint(req));
}

TEST(Protocol, CompileRequestValidation) {
  EXPECT_FALSE(parse_compile_request("not json").ok());
  EXPECT_FALSE(parse_compile_request("{\"graph\": \"g\"}").ok())
      << "missing schema must be rejected";
  const Result<CompileRequest> bad_opt = parse_compile_request(
      R"({"schema": "sdfmem.request.v1", "graph": "g",
          "options": {"optimizer": "warp"}})");
  ASSERT_FALSE(bad_opt.ok());
  EXPECT_EQ(bad_opt.error().code, ErrorCode::kBadArgument);
}

TEST(Protocol, CacheKeySeparatesGraphAndOptions) {
  const std::string fp_a = "order=rpmc;opt=sdppo";
  const std::string fp_b = "order=rpmc;opt=dppo";
  EXPECT_NE(cache_key("g1", fp_a), cache_key("g2", fp_a));
  EXPECT_NE(cache_key("g1", fp_a), cache_key("g1", fp_b));
  EXPECT_EQ(cache_key("g1", fp_a), cache_key("g1", fp_a));
  EXPECT_EQ(key_hex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(key_hex(0), "0000000000000000");
}

// ----------------------------------------------------------------- cache

TEST(ResultCache, InsertLookupAndReopen) {
  Scratch scratch;
  const std::uint64_t key = cache_key("graph", "opts");
  {
    ResultCache cache(scratch.cache_dir());
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, "response-bytes");
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "response-bytes");
    EXPECT_EQ(cache.stats().inserts, 1);
  }
  // A fresh process (new ResultCache) replays the index and still hits.
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.size(), 1u);
  const auto hit = reopened.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "response-bytes");
}

TEST(ResultCache, InsertIsFirstWriterWins) {
  Scratch scratch;
  ResultCache cache(scratch.cache_dir());
  const std::uint64_t key = 42;
  cache.insert(key, "first");
  cache.insert(key, "second");  // ignored: hot responses stay byte-stable
  EXPECT_EQ(cache.lookup(key).value_or(""), "first");
  EXPECT_EQ(cache.stats().inserts, 1);
}

TEST(ResultCache, CorruptObjectIsNeverServed) {
  Scratch scratch;
  const std::uint64_t key = cache_key("graph", "opts");
  ResultCache cache(scratch.cache_dir());
  cache.insert(key, "precious bytes");

  // Flip one byte in the stored object.
  const std::string path =
      scratch.cache_dir() + "/objects/" + key_hex(key) + ".json";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EXPECT_FALSE(cache.lookup(key).has_value())
      << "a flipped byte must read as a miss, not as data";
  EXPECT_EQ(cache.stats().corrupt, 1);
  // The entry was dropped; a re-insert repairs the cache.
  cache.insert(key, "precious bytes");
  EXPECT_EQ(cache.lookup(key).value_or(""), "precious bytes");
}

TEST(ResultCache, TornIndexTailIsTruncatedOnReopen) {
  Scratch scratch;
  const std::uint64_t key = 7;
  {
    ResultCache cache(scratch.cache_dir());
    cache.insert(key, "kept");
  }
  // Simulate a crash mid-append: garbage after the last valid record.
  {
    std::ofstream out(scratch.cache_dir() + "/index.journal",
                      std::ios::binary | std::ios::app);
    out << "\x13\x37torn";
  }
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.lookup(key).value_or(""), "kept");
  // And the recovered journal accepts new appends.
  reopened.insert(9, "after-recovery");
  EXPECT_EQ(reopened.lookup(9).value_or(""), "after-recovery");
}

TEST(ResultCache, RejectsForeignJournal) {
  Scratch scratch;
  fs::create_directories(scratch.cache_dir());
  {
    std::ofstream out(scratch.cache_dir() + "/index.journal",
                      std::ios::binary);
    out << "not a journal at all";
  }
  EXPECT_THROW(ResultCache cache(scratch.cache_dir()), std::exception);
}

// ------------------------------------------------------------ end to end
TEST(Protocol, TenantFieldNegotiatesSchemaVersion) {
  // No tenant: the wire payload stays at schema v1 with no tenant key,
  // so old servers keep accepting new clients.
  const CompileRequest v1 = tiny_request();
  const std::string v1_wire = encode_compile_request(v1);
  EXPECT_NE(v1_wire.find("sdfmem.request.v1"), std::string::npos);
  EXPECT_EQ(v1_wire.find("tenant"), std::string::npos);

  // A tenant id upgrades the payload to v2 and round-trips.
  CompileRequest v2 = tiny_request();
  v2.tenant = "team-a";
  const std::string v2_wire = encode_compile_request(v2);
  EXPECT_NE(v2_wire.find("sdfmem.request.v2"), std::string::npos);
  const Result<CompileRequest> back = parse_compile_request(v2_wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().tenant, "team-a");

  // The tenant never enters the option fingerprint: every tenant hits
  // the same shared cache entry and gets byte-identical responses.
  EXPECT_EQ(option_fingerprint(back.value()), option_fingerprint(v1));

  // Malformed tenant ids are rejected at parse time, typed kBadArgument.
  const Result<CompileRequest> bad = parse_compile_request(
      R"({"schema": "sdfmem.request.v2", "graph": "g", "tenant": "No!"})");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kBadArgument);
}

TEST(ResultCache, SecondOpenOfLockedDirIsATypedError) {
  Scratch scratch;
  {
    ResultCache first(scratch.cache_dir());
    first.insert(1, "doc");
    try {
      ResultCache second(scratch.cache_dir());
      FAIL() << "second open of a locked cache dir did not throw";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("locked by another process"),
                std::string::npos)
          << e.what();
    }
  }
  // Lock released with the first cache: reopening now succeeds.
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.lookup(1).value_or(""), "doc");
}

// ---------------------------------------------------- injected cache faults

TEST(ResultCache, WriteFaultIsATypedIoErrorAndLeavesNoEntry) {
  Scratch scratch;
  FaultGuard guard;
  ResultCache cache(scratch.cache_dir());
  fault::configure("svc_cache_write:1", 7);
  // The injected disk-full surfaces as IoError; nothing is indexed, so
  // the key reads as a plain miss rather than a half-written entry.
  EXPECT_THROW(cache.insert(5, "payload"), IoError);
  EXPECT_EQ(fault::fire_count("svc_cache_write"), 1);
  EXPECT_FALSE(cache.lookup(5).has_value());
  EXPECT_EQ(cache.stats().inserts, 0);
  // The fault is spent: the retry stores durably and hits.
  cache.insert(5, "payload");
  EXPECT_EQ(cache.lookup(5).value_or(""), "payload");
}

TEST(ResultCache, ReadFaultIsACleanMissNotCorruptBytes) {
  Scratch scratch;
  FaultGuard guard;
  ResultCache cache(scratch.cache_dir());
  cache.insert(6, "verified bytes");
  fault::configure("svc_cache_read:1", 7);
  // An unreadable object drops the entry and misses; it never serves
  // unverified data.
  EXPECT_FALSE(cache.lookup(6).has_value());
  EXPECT_EQ(fault::fire_count("svc_cache_read"), 1);
  EXPECT_EQ(cache.stats().corrupt, 1);
  cache.insert(6, "verified bytes");
  EXPECT_EQ(cache.lookup(6).value_or(""), "verified bytes");
}

TEST(ResultCache, ScrubQuarantinesCorruptObjectAndKeepsGoodOnes) {
  Scratch scratch;
  ResultCache cache(scratch.cache_dir());
  cache.insert(1, "good object");
  cache.insert(2, "soon to rot");
  const std::string rotten =
      scratch.cache_dir() + "/objects/" + key_hex(2) + ".json";
  {
    std::ofstream out(rotten, std::ios::binary | std::ios::trunc);
    out << "CORRUPT GARBAGE";
  }
  const std::vector<std::uint64_t> quarantined = cache.scrub_once();
  EXPECT_EQ(quarantined, std::vector<std::uint64_t>{2});
  // Moved aside for forensics, not deleted; the index entry is gone.
  EXPECT_FALSE(fs::exists(rotten));
  EXPECT_TRUE(fs::exists(scratch.cache_dir() + "/quarantine/" +
                         key_hex(2) + ".json"));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.scrub_passes, 1);
  EXPECT_EQ(stats.scrub_checked, 2);
  EXPECT_EQ(stats.scrub_quarantined, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(1).value_or(""), "good object");
  EXPECT_FALSE(cache.lookup(2).has_value());
}

}  // namespace
}  // namespace sdf::svc
