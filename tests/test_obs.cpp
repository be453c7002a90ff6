// Telemetry subsystem: span nesting, counter aggregation, JSON round-trip,
// the disabled-path guard, and the pipeline's per-stage span contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graphs/satellite.h"
#include "obs/counters.h"
#include "obs/json_report.h"
#include "obs/trace.h"
#include "pipeline/compile.h"

namespace sdf {
namespace {

/// Enables a fresh telemetry session for the test and disables it after,
/// so the global session never leaks into other tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

std::size_t count_spans(const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(obs::spans().begin(), obs::spans().end(),
                    [&](const obs::SpanRecord& r) { return r.name == name; }));
}

TEST_F(ObsTest, SpanNestingTracksDepth) {
  {
    obs::Span outer("outer");
    {
      obs::Span inner1("inner1");
    }
    {
      obs::Span inner2("inner2");
      obs::Span innermost("innermost");
    }
  }
  obs::Span after("after");

  ASSERT_EQ(obs::spans().size(), 5u);
  EXPECT_EQ(obs::spans()[0].name, "outer");
  EXPECT_EQ(obs::spans()[0].depth, 0);
  EXPECT_EQ(obs::spans()[1].name, "inner1");
  EXPECT_EQ(obs::spans()[1].depth, 1);
  EXPECT_EQ(obs::spans()[2].depth, 1);
  EXPECT_EQ(obs::spans()[3].name, "innermost");
  EXPECT_EQ(obs::spans()[3].depth, 2);
  EXPECT_EQ(obs::spans()[4].name, "after");
  EXPECT_EQ(obs::spans()[4].depth, 0);  // siblings of `outer` re-use depth 0
}

TEST_F(ObsTest, SpanTimestampsAreMonotonicAndNested) {
  {
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  const auto& spans = obs::spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& outer = spans[0];
  const auto& inner = spans[1];
  EXPECT_GE(outer.start_ns, 0);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.start_ns, inner.end_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_GE(outer.duration_ns(), inner.duration_ns());
}

TEST_F(ObsTest, OpenSpanReportsZeroDuration) {
  obs::Span open("open");
  ASSERT_EQ(obs::spans().size(), 1u);
  EXPECT_EQ(obs::spans()[0].end_ns, -1);
  EXPECT_EQ(obs::spans()[0].duration_ns(), 0);
}

TEST_F(ObsTest, CountersAggregateAndGaugesOverwrite) {
  obs::count("t.counter", 3);
  obs::count("t.counter", 4);
  obs::count("t.other");
  obs::gauge("t.gauge", 10);
  obs::gauge("t.gauge", 7);

  EXPECT_EQ(obs::counter("t.counter"), 7);
  EXPECT_EQ(obs::counter("t.other"), 1);
  EXPECT_EQ(obs::counter("t.absent"), 0);
  EXPECT_EQ(obs::gauge_value("t.gauge"), 7);
  EXPECT_EQ(obs::counters().size(), 2u);
  EXPECT_EQ(obs::gauges().size(), 1u);
}

TEST_F(ObsTest, DisabledTracingAddsNoEntries) {
  obs::set_enabled(false);
  {
    obs::Span s("ignored");
    obs::count("ignored.counter", 5);
    obs::gauge("ignored.gauge", 5);
  }
  EXPECT_TRUE(obs::spans().empty());
  EXPECT_TRUE(obs::counters().empty());
  EXPECT_TRUE(obs::gauges().empty());

  // A full pipeline run must also leave the session untouched.
  (void)compile(satellite_receiver());
  EXPECT_TRUE(obs::spans().empty());
  EXPECT_TRUE(obs::counters().empty());
}

TEST_F(ObsTest, ResetClearsEverything) {
  {
    obs::Span s("span");
    obs::count("c", 1);
    obs::gauge("g", 1);
  }
  obs::reset();
  EXPECT_TRUE(obs::spans().empty());
  EXPECT_TRUE(obs::counters().empty());
  EXPECT_TRUE(obs::gauges().empty());
}

TEST(ObsJson, ScalarAndContainerRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["null"] = obs::Json();
  doc["true"] = true;
  doc["false"] = false;
  doc["int"] = std::int64_t{-12345678901234};
  doc["double"] = 2.5;
  doc["string"] = "with \"quotes\", \\slashes\\ and\nnewlines\tplus \x01";
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obs::Json nested = obs::Json::object();
  nested["k"] = 3;
  arr.push_back(std::move(nested));
  doc["array"] = std::move(arr);

  for (const int indent : {-1, 0, 2}) {
    const std::string text = doc.dump(indent);
    const obs::Json parsed = obs::Json::parse(text);
    EXPECT_EQ(parsed, doc) << "indent=" << indent << "\n" << text;
  }
}

TEST(ObsJson, ObjectsPreserveInsertionOrder) {
  obs::Json doc = obs::Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[1].first, "alpha");
  // Re-assigning an existing key must not duplicate it.
  doc["zebra"] = 3;
  EXPECT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.find("zebra")->as_int(), 3);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)obs::Json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("{\"a\":1} x"), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("\"unterminated"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("tru"), std::invalid_argument);
}

TEST(ObsJson, ParsesNumbersAsIntOrDouble) {
  EXPECT_EQ(obs::Json::parse("42").type(), obs::Json::Type::kInt);
  EXPECT_EQ(obs::Json::parse("42").as_int(), 42);
  EXPECT_EQ(obs::Json::parse("-1e3").type(), obs::Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(obs::Json::parse("2.5").as_double(), 2.5);
}

TEST_F(ObsTest, CompileEmitsOneSpanPerFig21Stage) {
  (void)compile(satellite_receiver());

  // Fig. 21: topological sort -> loop DP -> (simulate check) ->
  // lifetime extraction -> intersection graph -> allocation.
  EXPECT_EQ(count_spans("pipeline.stage.order"), 1u);
  EXPECT_EQ(count_spans("pipeline.compile"), 1u);
  EXPECT_EQ(count_spans("pipeline.stage.loop_dp"), 1u);
  EXPECT_EQ(count_spans("pipeline.stage.simulate"), 1u);
  EXPECT_EQ(count_spans("pipeline.stage.lifetimes"), 1u);
  EXPECT_EQ(count_spans("pipeline.stage.wig"), 1u);
  EXPECT_EQ(count_spans("pipeline.stage.allocate"), 1u);

  // Stage spans nest under the top-level compile span.
  for (const obs::SpanRecord& rec : obs::spans()) {
    if (rec.name.starts_with("pipeline.stage.")) {
      EXPECT_GE(rec.depth, 1) << rec.name;
    }
    EXPECT_GE(rec.end_ns, rec.start_ns) << rec.name;
  }
}

TEST_F(ObsTest, CompilePopulatesCountersAcrossLayers) {
  (void)compile(satellite_receiver());  // default RPMC + SDPPO + first-fit

  // sched/ layer.
  EXPECT_GT(obs::counter("sched.rpmc.partitions"), 0);
  EXPECT_GT(obs::counter("sched.rpmc.cuts_considered"), 0);
  EXPECT_GT(obs::counter("sched.sdppo.cells"), 0);
  EXPECT_GT(obs::counter("sched.sdppo.splits"), 0);
  // alloc/ layer.
  EXPECT_GT(obs::counter("alloc.wig.pairs_checked"), 0);
  EXPECT_GT(obs::counter("alloc.first_fit.placements"), 0);
  EXPECT_GT(obs::counter("alloc.first_fit.probes"), 0);
  // pipeline/ layer.
  EXPECT_EQ(obs::counter("pipeline.compile.runs"), 1);
  EXPECT_GT(obs::gauge_value("pipeline.result.shared_size"), 0);
}

TEST_F(ObsTest, ReportCarriesSpansCountersAndGauges) {
  (void)compile(satellite_receiver());
  const obs::Json doc = obs::report();

  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "sdfmem.telemetry.v1");
  ASSERT_NE(doc.find("spans"), nullptr);
  EXPECT_GE(doc.find("spans")->size(), 6u);
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_GE(doc.find("counters")->size(), 8u);
  ASSERT_NE(doc.find("gauges"), nullptr);

  // The serialized report must survive a parse round-trip.
  const obs::Json reparsed = obs::Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed, doc);

  // Every span entry carries the schema's fields.
  const obs::Json& spans = *doc.find("spans");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Json& s = spans.at(i);
    EXPECT_NE(s.find("name"), nullptr);
    EXPECT_NE(s.find("depth"), nullptr);
    EXPECT_NE(s.find("start_ns"), nullptr);
    EXPECT_NE(s.find("dur_ns"), nullptr);
  }
}

// ------------------------------------------------- string escaping paths

/// escape -> wrap in quotes -> parse must reproduce the input exactly.
std::string escape_roundtrip(const std::string& in) {
  const std::string doc = "\"" + obs::json_escape(in) + "\"";
  return obs::Json::parse(doc).as_string();
}

TEST(JsonEscape, RoundTripsEveryControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    EXPECT_EQ(escape_roundtrip(in), in) << "control char " << c;
  }
}

TEST(JsonEscape, RoundTripsQuotesBackslashesAndMixedText) {
  const std::string cases[] = {
      "",
      "plain",
      "say \"hi\"",
      "back\\slash",
      "tab\there\nnewline\rreturn",
      "bell\x07 vertical\x0b form\x0c",
      std::string("embedded\0nul", 12),
      "trailing backslash\\",
      "\\u0041 looks escaped but is literal text",
  };
  for (const std::string& in : cases) {
    EXPECT_EQ(escape_roundtrip(in), in);
  }
}

TEST(JsonEscape, RoundTripsHighBytesUntouched) {
  // Bytes >= 0x80 (UTF-8 continuation bytes) pass through unescaped.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 done";
  EXPECT_EQ(obs::json_escape(utf8), utf8);
  EXPECT_EQ(escape_roundtrip(utf8), utf8);
}

TEST(JsonEscape, ControlCharsSerializeAsLowercaseU) {
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x1f')), "\\u001f");
  // The named short escapes win over \u for the classic whitespace ones.
  EXPECT_EQ(obs::json_escape("\b\f\n\r\t\"\\"),
            "\\b\\f\\n\\r\\t\\\"\\\\");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(obs::Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(obs::Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(obs::Json::parse("\"\\u2192\"").as_string(), "\xe2\x86\x92");
  // Uppercase hex digits are accepted on input.
  EXPECT_EQ(obs::Json::parse("\"\\u001F\"").as_string(),
            std::string(1, '\x1f'));
  EXPECT_EQ(obs::Json::parse("\"\\/\"").as_string(), "/");
}

TEST(JsonParse, RejectsMalformedEscapes) {
  // Truncated \u sequences (the "bad \u escape" length path).
  EXPECT_THROW((void)obs::Json::parse("\"\\u12\""), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("\"\\u\""), std::invalid_argument);
  // Non-hex digits inside \u (the digit-validation path).
  EXPECT_THROW((void)obs::Json::parse("\"\\u12g4\""),
               std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("\"\\uzzzz\""),
               std::invalid_argument);
  // Unknown escape character.
  EXPECT_THROW((void)obs::Json::parse("\"\\q\""), std::invalid_argument);
  // Unterminated string / escape at end of input.
  EXPECT_THROW((void)obs::Json::parse("\"abc"), std::invalid_argument);
  EXPECT_THROW((void)obs::Json::parse("\"abc\\"), std::invalid_argument);
}

TEST(JsonParse, EscapedKeysRoundTripThroughDump) {
  obs::Json doc = obs::Json::object();
  doc["line\nbreak \"key\""] = std::string("value\twith\ttabs");
  const obs::Json back = obs::Json::parse(doc.dump());
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.find("line\nbreak \"key\"")->as_string(),
            "value\twith\ttabs");
}

}  // namespace
}  // namespace sdf
