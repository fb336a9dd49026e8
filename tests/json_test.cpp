// Round-trip tests for the deterministic JSON writer/parser pair and the
// BenchResult serialization built on it. The writer's byte-stability contract
// (key order, shortest round-trip doubles) is what makes BENCH_RESULTS.json
// diffable; the parser is the read side the benchkit tools depend on.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/json.h"
#include "metrics/report.h"

namespace rcommit {
namespace {

// --- writer -> parser round trips -------------------------------------------------

TEST(JsonWriter, ObjectArrayScalars) {
  json::JsonWriter w;
  w.begin_object();
  w.key("name").value("bench");
  w.key("count").value(42);
  w.key("rate").value(0.25);
  w.key("on").value(true);
  w.key("items");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();

  EXPECT_EQ(w.str(),
            "{\"name\":\"bench\",\"count\":42,\"rate\":0.25,\"on\":true,"
            "\"items\":[1,2]}");

  const auto v = json::parse(w.str());
  EXPECT_EQ(v.at("name").as_string(), "bench");
  EXPECT_EQ(v.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(v.at("rate").as_double(), 0.25);
  EXPECT_TRUE(v.at("on").as_bool());
  ASSERT_EQ(v.at("items").size(), 2u);
  EXPECT_EQ(v.at("items").at(1).as_int(), 2);
}

TEST(JsonWriter, DoublesUseShortestRoundTripForm) {
  json::JsonWriter w;
  w.begin_array();
  for (const double v : {2.5e-07, 1.0, 0.1, 123456.789, -0.5, 1e21}) w.value(v);
  w.end_array();
  EXPECT_EQ(w.str(), "[2.5e-07,1,0.1,123456.789,-0.5,1e+21]");
  // Every double survives the writer -> parser trip bit for bit, so a
  // sub-microsecond bench timing no longer collapses to 0.
  const auto v = json::parse(w.str());
  EXPECT_EQ(v.at(0).as_double(), 2.5e-07);
  EXPECT_EQ(v.at(3).as_double(), 123456.789);
  const double third = 1.0 / 3.0;
  json::JsonWriter one;
  one.value(third);
  EXPECT_EQ(json::parse(one.str()).as_double(), third);
}

TEST(JsonWriter, EscapedStringsSurviveRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  json::JsonWriter w;
  w.begin_object();
  w.key("s").value(nasty);
  w.end_object();
  EXPECT_EQ(json::parse(w.str()).at("s").as_string(), nasty);
}

TEST(JsonWriter, RawSplicesNestedDocument) {
  json::JsonWriter inner;
  inner.begin_object();
  inner.key("x").value(1);
  inner.end_object();

  json::JsonWriter outer;
  outer.begin_object();
  outer.key("list");
  outer.begin_array();
  outer.raw(inner.str());
  outer.raw(inner.str());  // raw() must emit the separating comma too
  outer.end_array();
  outer.end_object();

  EXPECT_EQ(outer.str(), "{\"list\":[{\"x\":1},{\"x\":1}]}");
  EXPECT_EQ(json::parse(outer.str()).at("list").at(1).at("x").as_int(), 1);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{\"a\":}"), CheckFailure);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), CheckFailure);
  EXPECT_THROW(json::parse("[1,2"), CheckFailure);
  EXPECT_THROW(json::parse(""), CheckFailure);
}

TEST(JsonParser, TypedAccessorsCheckKinds) {
  const auto v = json::parse("{\"n\":1.5,\"s\":\"x\"}");
  EXPECT_THROW((void)v.at("s").as_double(), CheckFailure);
  EXPECT_THROW((void)v.at("n").as_int(), CheckFailure);  // not integral
  EXPECT_THROW((void)v.at("missing"), CheckFailure);
  EXPECT_EQ(v.get_string("missing", "d"), "d");
}

// --- BenchResult serialization ----------------------------------------------------

metrics::BenchResult sample_result() {
  metrics::BenchResult r;
  r.experiment_id = "E1";
  r.bench = "bench_stages";
  r.title = "expected stages";
  r.quick = true;
  r.repeat = 3;
  r.seed0 = 7;
  r.claims.push_back({"C1", "mean <= 4", "mean = 2.25", true});
  r.claims.push_back({"C6", "more coins don't hurt", "1.97 vs 1.98", false});
  r.scalars.push_back({"worst_mean", 2.25, "stages"});
  r.timings.push_back({"total", 0.5, 3, 1});
  r.tables.push_back({"grid", "| n | mean |\n| 5 | 2.0 |\n"});
  return r;
}

TEST(BenchResultJson, RoundTripPreservesEveryField) {
  const auto original = sample_result();
  const auto restored =
      metrics::bench_result_from_json(json::parse(metrics::to_json(original)));

  EXPECT_EQ(restored.schema_version, metrics::kBenchSchemaVersion);
  EXPECT_EQ(restored.experiment_id, "E1");
  EXPECT_EQ(restored.bench, "bench_stages");
  EXPECT_EQ(restored.title, "expected stages");
  EXPECT_TRUE(restored.quick);
  EXPECT_EQ(restored.repeat, 3);
  EXPECT_EQ(restored.seed0, 7u);

  ASSERT_EQ(restored.claims.size(), 2u);
  EXPECT_EQ(restored.claims[0].claim_id, "C1");
  EXPECT_EQ(restored.claims[0].paper, "mean <= 4");
  EXPECT_EQ(restored.claims[0].measured, "mean = 2.25");
  EXPECT_TRUE(restored.claims[0].holds);
  EXPECT_FALSE(restored.claims[1].holds);
  EXPECT_EQ(metrics::claims_held(restored), 1);

  ASSERT_EQ(restored.scalars.size(), 1u);
  EXPECT_EQ(restored.scalars[0].name, "worst_mean");
  EXPECT_DOUBLE_EQ(restored.scalars[0].value, 2.25);
  EXPECT_EQ(restored.scalars[0].unit, "stages");

  ASSERT_EQ(restored.timings.size(), 1u);
  EXPECT_EQ(restored.timings[0].name, "total");
  EXPECT_DOUBLE_EQ(restored.timings[0].seconds, 0.5);
  EXPECT_EQ(restored.timings[0].repeats, 3);
  EXPECT_EQ(restored.timings[0].warmups, 1);

  ASSERT_EQ(restored.tables.size(), 1u);
  EXPECT_EQ(restored.tables[0].name, "grid");
  EXPECT_EQ(restored.tables[0].text, "| n | mean |\n| 5 | 2.0 |\n");
}

TEST(BenchResultJson, SerializationIsDeterministic) {
  EXPECT_EQ(metrics::to_json(sample_result()), metrics::to_json(sample_result()));
}

TEST(BenchResultJson, SchemaVersionMismatchRejected) {
  auto text = metrics::to_json(sample_result());
  const std::string needle = "\"schema_version\":1";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\":99");
  EXPECT_THROW(metrics::bench_result_from_json(json::parse(text)), CheckFailure);
}

}  // namespace
}  // namespace rcommit
