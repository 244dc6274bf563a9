#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "omx/support/cli.hpp"
#include "omx/support/diagnostics.hpp"
#include "omx/support/interner.hpp"
#include "omx/support/json.hpp"
#include "omx/support/rng.hpp"
#include "omx/support/timer.hpp"

namespace omx {
namespace {

TEST(Interner, AssignsDenseIdsInOrder) {
  Interner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("gamma"), 2u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(Interner, InternIsIdempotent) {
  Interner in;
  const SymbolId a = in.intern("x");
  EXPECT_EQ(in.intern("x"), a);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, RoundTripsNames) {
  Interner in;
  const SymbolId a = in.intern("w[3].contact.fn");
  EXPECT_EQ(in.name(a), "w[3].contact.fn");
}

TEST(Interner, FindDoesNotCreate) {
  Interner in;
  EXPECT_EQ(in.find("missing"), kInvalidSymbol);
  EXPECT_EQ(in.size(), 0u);
  in.intern("present");
  EXPECT_EQ(in.find("present"), 0u);
}

TEST(Interner, SurvivesManyInsertions) {
  // Regression guard for the stored-string_view stability issue: small
  // (SSO) strings must stay addressable across container growth.
  Interner in;
  const auto name = [](int i) {
    std::string s = "s";
    s += std::to_string(i);
    return s;
  };
  for (int i = 0; i < 10000; ++i) {
    in.intern(name(i));
  }
  for (int i = 0; i < 10000; ++i) {
    const std::string s = name(i);
    EXPECT_EQ(in.find(s), static_cast<SymbolId>(i)) << s;
  }
}

TEST(Interner, EmptyAndWeirdStrings) {
  Interner in;
  const SymbolId e = in.intern("");
  EXPECT_EQ(in.name(e), "");
  const SymbolId w = in.intern("a b\tc\n");
  EXPECT_EQ(in.name(w), "a b\tc\n");
}

TEST(Diagnostics, ErrorCarriesLocation) {
  const Error e("bad thing", SourceLoc{3, 7});
  EXPECT_EQ(e.where().line, 3u);
  EXPECT_EQ(e.where().column, 7u);
  EXPECT_NE(std::string(e.what()).find("line 3:7"), std::string::npos);
}

TEST(Diagnostics, ErrorWithoutLocation) {
  const Error e("plain");
  EXPECT_FALSE(e.where().valid());
  EXPECT_STREQ(e.what(), "plain");
}

TEST(Diagnostics, RequireThrowsBug) {
  EXPECT_THROW(OMX_REQUIRE(false, "should fire"), Bug);
  EXPECT_NO_THROW(OMX_REQUIRE(true, "should not fire"));
}

TEST(Rng, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Timer, MeasuresMonotonically) {
  Stopwatch sw;
  const double a = sw.seconds();
  const double b = sw.seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Timer, SpinForWaitsApproximately) {
  Stopwatch sw;
  spin_for(1e-4);
  EXPECT_GE(sw.seconds(), 1e-4);
}

TEST(Json, ParsesNestedDocument) {
  const support::json::Value v = support::json::parse(
      "{\"model\": \"m1\", \"scenarios\": 3, \"stream\": true,"
      " \"tol\": {\"rtol\": 1e-6}, \"rows\": [1, 2, 3], \"nil\": null}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("model", ""), "m1");
  EXPECT_EQ(v.get_number("scenarios", 0.0), 3.0);
  EXPECT_TRUE(v.get_bool("stream", false));
  const support::json::Value* tol = v.find("tol");
  ASSERT_NE(tol, nullptr);
  EXPECT_EQ(tol->get_number("rtol", 0.0), 1e-6);
  const support::json::Value* rows = v.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 3u);
  EXPECT_EQ(rows->array[2].number, 3.0);
  ASSERT_NE(v.find("nil"), nullptr);
  EXPECT_TRUE(v.find("nil")->is_null());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, DecodesStringEscapes) {
  const support::json::Value v = support::json::parse(
      "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}");
  EXPECT_EQ(v.get_string("s", ""), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, TypedGettersDistinguishAbsentFromWrongType) {
  const support::json::Value v =
      support::json::parse("{\"n\": 4, \"s\": \"x\", \"nil\": null}");
  // Absent or null -> fallback.
  EXPECT_EQ(v.get_number("missing", 7.0), 7.0);
  EXPECT_EQ(v.get_number("nil", 7.0), 7.0);
  // Present with the wrong type -> malformed request, throws.
  EXPECT_THROW(v.get_number("s", 0.0), omx::Error);
  EXPECT_THROW(v.get_string("n", ""), omx::Error);
  EXPECT_THROW(v.get_bool("n", false), omx::Error);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(support::json::parse(""), omx::Error);
  EXPECT_THROW(support::json::parse("{"), omx::Error);
  EXPECT_THROW(support::json::parse("{\"a\": 1} trailing"), omx::Error);
  EXPECT_THROW(support::json::parse("{'a': 1}"), omx::Error);
  EXPECT_THROW(support::json::parse("{\"a\": 01}"), omx::Error);
  EXPECT_THROW(support::json::parse("[1, 2,]"), omx::Error);
  EXPECT_THROW(support::json::parse("\"\\x\""), omx::Error);
}

TEST(Json, NumbersFollowTheRfc8259Grammar) {
  // strtod alone would take a sign, a bare fraction or a bare point.
  for (const char* bad : {"+1", ".5", "1.", "-", "-.5", "1.e3", "1e", "1e+",
                          "01", "-01", "0x10", "1e999", "[+1]", "[.5]"}) {
    EXPECT_THROW(support::json::parse(bad), omx::Error) << bad;
  }
  const support::json::Value v =
      support::json::parse("[0, -0, 0.5, -12.5e2, 1E+3, 1e-7, 10]");
  ASSERT_EQ(v.array.size(), 7u);
  const double want[] = {0.0, -0.0, 0.5, -1250.0, 1000.0, 1e-7, 10.0};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(v.array[i].number, want[i]) << i;
  }
  EXPECT_TRUE(std::signbit(v.array[1].number));
}

TEST(Json, DepthCapIsTheCallersChoice) {
  std::string deep;
  for (int i = 0; i < 64; ++i) {
    deep += "[";
  }
  for (int i = 0; i < 64; ++i) {
    deep += "]";
  }
  EXPECT_THROW(support::json::parse(deep), omx::Error);
  EXPECT_EQ(support::json::parse(deep, 64).array.size(), 1u);
}

TEST(Json, RejectsRunawayNesting) {
  // 64 levels against the 32-level cap: attacker-controlled recursion
  // depth must not reach the stack guard.
  std::string deep;
  for (int i = 0; i < 64; ++i) {
    deep += "[";
  }
  EXPECT_THROW(support::json::parse(deep), omx::Error);
}

TEST(Cli, ParseIntAcceptsOnlyAWholeIntegerInRange) {
  EXPECT_EQ(cli::parse_int("4", 1, 256), 4);
  EXPECT_EQ(cli::parse_int("0", 0, 65535), 0);
  EXPECT_EQ(cli::parse_int("65535", 0, 65535), 65535);
  // Non-numeric, partly numeric, empty, signed-out-of-range and
  // overflowing values are all rejected, never read as 0 or wrapped.
  for (const char* bad : {"abc", "", "4x", " 4", "+4", "4.0", "-1", "0",
                          "257", "99999999999999999999999"}) {
    EXPECT_FALSE(cli::parse_int(bad, 1, 256).has_value()) << bad;
  }
  EXPECT_FALSE(cli::parse_int("70000", 0, 65535).has_value());
}

}  // namespace
}  // namespace omx
