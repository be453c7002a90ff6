// Telemetry subsystem: span nesting, counter aggregation, JSON
// serialization, the disabled-path guard, and the pipeline's per-stage span
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

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

TEST(ObsJson, ScalarsAndContainersDumpToLiteralText) {
  obs::Json doc = obs::Json::object();
  doc["null"] = obs::Json();
  doc["true"] = true;
  doc["false"] = false;
  doc["int"] = std::int64_t{-12345678901234};
  doc["double"] = 2.5;
  doc["whole double"] = 3.0;
  doc["string"] = "with \"quotes\", \\slashes\\ and\nnewlines\tplus \x01";
  doc["line\nbreak \"key\""] = std::string("value\twith\ttabs");
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obs::Json nested = obs::Json::object();
  nested["k"] = 3;
  arr.push_back(std::move(nested));
  doc["array"] = std::move(arr);
  doc["empty"] = obs::Json::array();

  EXPECT_EQ(doc.dump(),
            R"({"null":null,"true":true,"false":false,"int":-12345678901234,)"
            R"("double":2.5,"whole double":3.0,)"
            R"("string":"with \"quotes\", \\slashes\\ and\nnewlines\tplus )"
            R"(\u0001","line\nbreak \"key\"":"value\twith\ttabs",)"
            R"("array":[1,"two",{"k":3}],"empty":[]})");
  EXPECT_EQ(doc.find("array")->at(2).dump(0), "{\n\"k\": 3\n}");
  EXPECT_EQ(doc.find("array")->dump(2),
            "[\n  1,\n  \"two\",\n  {\n    \"k\": 3\n  }\n]");
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

  // The serialized report opens with the schema tag.
  EXPECT_TRUE(doc.dump(2).starts_with(
      "{\n  \"schema\": \"sdfmem.telemetry.v1\",\n  \"spans\": ["));

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

TEST(JsonEscape, EscapesEveryControlCharacter) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  EXPECT_EQ(obs::json_escape(controls),
            R"(\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
            R"(\b\t\n\u000b\f\r\u000e\u000f)"
            R"(\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndMixedText) {
  const std::pair<std::string, std::string> cases[] = {
      {"", ""},
      {"plain", "plain"},
      {"say \"hi\"", R"(say \"hi\")"},
      {"back\\slash", R"(back\\slash)"},
      {"tab\there\nnewline\rreturn", R"(tab\there\nnewline\rreturn)"},
      {"bell\x07 vertical\x0b form\x0c",
       R"(bell\u0007 vertical\u000b form\f)"},
      {std::string("embedded\0nul", 12), R"(embedded\u0000nul)"},
      {"trailing backslash\\", R"(trailing backslash\\)"},
      {"\\u0041 looks escaped but is literal text",
       R"(\\u0041 looks escaped but is literal text)"},
  };
  for (const auto& [in, want] : cases) {
    EXPECT_EQ(obs::json_escape(in), want);
  }
}

TEST(JsonEscape, LeavesHighBytesUntouched) {
  // Bytes >= 0x80 (UTF-8 continuation bytes) pass through unescaped.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 done";
  EXPECT_EQ(obs::json_escape(utf8), utf8);
  EXPECT_EQ(obs::Json(utf8).dump(), "\"" + utf8 + "\"");
}

TEST(JsonEscape, ControlCharsSerializeAsLowercaseU) {
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x1f')), "\\u001f");
  // The named short escapes win over \u for the classic whitespace ones.
  EXPECT_EQ(obs::json_escape("\b\f\n\r\t\"\\"),
            "\\b\\f\\n\\r\\t\\\"\\\\");
}

}  // namespace
}  // namespace sdf
