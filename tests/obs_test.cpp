// Telemetry subsystem: registry concurrency, histogram bucket edges,
// enabled/disabled gating, span recording, and exporter well-formedness
// (round-tripped through the strict JSON validator).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/support/diagnostics.hpp"

namespace omx::obs {
namespace {

TEST(Registry, SameNameReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("y"));
}

TEST(Registry, CounterSurvivesConcurrentHammering) {
  Registry reg;
  Counter& c = reg.counter("hammered");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) {
        c.add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared." + std::to_string(i)).add();
        reg.counter("own." + std::to_string(t)).add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.counter("shared.0").value(), 8u);   // once per thread
  EXPECT_EQ(reg.counter("own.3").value(), 200u);    // one thread, 200x
}

TEST(Registry, DisabledUpdatesAreDropped) {
  Registry reg;
  Counter& c = reg.counter("gated");
  c.add(5);
  set_enabled(false);
  c.add(7);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 6u);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Registry reg;
  Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == bound  -> bucket 0 (v <= bounds[i])
  h.observe(1.0001); //           -> bucket 1
  h.observe(10.0);   //           -> bucket 1
  h.observe(100.0);  //           -> bucket 2
  h.observe(1e6);    // overflow  -> bucket 3
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 1e6, 1e-9);
}

TEST(Histogram, RejectsBadBounds) {
  Registry reg;
  EXPECT_THROW(reg.histogram("bad", {3.0, 2.0}), omx::Bug);
}

TEST(Snapshot, ResetZeroesEverything) {
  Registry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.reset();
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].second, 0u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].second, 0.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 0u);
}

TEST(Trace, SpansRecordOnlyWhileActive) {
  TraceBuffer& tb = TraceBuffer::global();
  { Span s("before-start", "test"); }
  tb.start();
  { Span s("during", "test"); }
  tb.stop();
  { Span s("after-stop", "test"); }
  bool saw_during = false;
  for (const TraceEvent& ev : tb.events()) {
    EXPECT_NE(ev.name, "before-start");
    EXPECT_NE(ev.name, "after-stop");
    if (ev.name == "during") {
      saw_during = true;
      EXPECT_GE(ev.dur_ns, 0);
      EXPECT_GE(ev.start_ns, 0);
    }
  }
  EXPECT_TRUE(saw_during);
}

TEST(Trace, ThreadsGetDistinctIds) {
  const std::uint32_t main_id = TraceBuffer::thread_id();
  std::uint32_t other_id = main_id;
  std::thread([&other_id] { other_id = TraceBuffer::thread_id(); }).join();
  EXPECT_NE(main_id, other_id);
  EXPECT_EQ(TraceBuffer::thread_id(), main_id);  // stable per thread
}

TEST(Trace, StepEventInsideASpanFallsInsideItsInterval) {
  // Spans and step events share one epoch and one thread id: a step
  // event recorded while a span is open is stamped inside the span.
  TraceBuffer& tb = TraceBuffer::global();
  tb.start(TraceBuffer::kSpans | TraceBuffer::kSteps);
  {
    Span s("outer", "test");
    record_step(StepEventKind::kStepAccepted, "bdf", 2, 0.5, 1e-3, 0.1);
  }
  tb.stop();
  const std::vector<TraceEvent> spans = tb.events();
  const std::vector<StepEvent> steps = tb.step_events();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_LE(spans[0].start_ns, steps[0].when_ns);
  EXPECT_LE(steps[0].when_ns, spans[0].start_ns + spans[0].dur_ns);
  EXPECT_EQ(spans[0].tid, TraceBuffer::thread_id());
  EXPECT_EQ(steps[0].tid, TraceBuffer::thread_id());
}

TEST(Trace, SpansPastTheStepCapacityAreAllKept) {
  // Spans are never dropped; step events keep the first 65536 per thread
  // and count the rest.
  constexpr std::size_t kCapacity = 65536;
  constexpr std::size_t kEach = kCapacity + 1000;
  TraceBuffer tb;
  EXPECT_EQ(tb.step_capacity_per_thread(), kCapacity);
  tb.start(TraceBuffer::kSpans | TraceBuffer::kSteps);
  for (std::size_t i = 0; i < kEach; ++i) {
    tb.record("span", "test", static_cast<std::int64_t>(i), 1);
    StepEvent ev;
    ev.t = static_cast<double>(i);
    tb.record(ev);
  }
  tb.stop();
  const std::vector<TraceEvent> spans = tb.events();
  ASSERT_EQ(spans.size(), kEach);
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < kEach; ++i) {
    out_of_order += spans[i].start_ns != static_cast<std::int64_t>(i);
  }
  EXPECT_EQ(out_of_order, 0u);
  const std::vector<StepEvent> steps = tb.step_events();
  ASSERT_EQ(steps.size(), kCapacity);
  EXPECT_EQ(steps.back().t, static_cast<double>(kCapacity - 1));
  EXPECT_EQ(tb.dropped(), kEach - kCapacity);
}

TEST(Trace, SpanIdsReadBackInTheName) {
  // A task span logs the task id, not a name; events() builds "task/<id>".
  TraceBuffer tb;
  tb.start();
  tb.record("task", "task", 0, 5, 17);
  tb.record("idle", "worker", 5, 1);
  tb.stop();
  const std::vector<TraceEvent> spans = tb.events();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "task/17");
  EXPECT_STREQ(spans[0].category, "task");
  EXPECT_EQ(spans[1].name, "idle");
}

// -- JSON validator sanity (it guards the exporter tests below) -------------

TEST(ValidateJson, AcceptsAndRejects) {
  EXPECT_TRUE(validate_json("{}"));
  EXPECT_TRUE(validate_json("[1, 2.5, -3e-7, \"a\\nb\", true, null]"));
  EXPECT_TRUE(validate_json("{\"a\": {\"b\": [{}]}}"));
  EXPECT_FALSE(validate_json(""));
  EXPECT_FALSE(validate_json("{"));
  EXPECT_FALSE(validate_json("{\"a\": }"));
  EXPECT_FALSE(validate_json("[1,]"));
  EXPECT_FALSE(validate_json("{} trailing"));
  EXPECT_FALSE(validate_json("'single'"));
  EXPECT_FALSE(validate_json("{\"a\": 01e}"));
}

TEST(Export, MetricsJsonRoundTrips) {
  Registry reg;
  reg.counter("rhs.calls").add(42);
  reg.gauge("speed \"quoted\"\n").set(-1.25e-3);
  reg.histogram("lat", {1e-3, 1e-2}).observe(5e-3);
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_TRUE(validate_json(json)) << json;
  EXPECT_NE(json.find("\"rhs.calls\": 42"), std::string::npos);
  // Empty registries must still be valid documents.
  Registry empty;
  EXPECT_TRUE(validate_json(metrics_json(empty.snapshot())));
}

TEST(Export, ChromeTraceJsonRoundTrips) {
  TraceBuffer& tb = TraceBuffer::global();
  tb.start();
  tb.set_thread_name("tester \"quoted\"");
  { Span s("phase/a", "test"); }
  { Span s("phase/b", "test"); }
  tb.stop();
  const std::string json = chrome_trace_json(tb);
  EXPECT_TRUE(validate_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("phase/a"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Export, TextSummaryListsEverything) {
  Registry reg;
  reg.counter("net.messages").add(8);
  reg.gauge("speed").set(2.0);
  reg.histogram("lat", {1.0}).observe(0.5);
  const std::string text = format_text(reg.snapshot());
  EXPECT_NE(text.find("net.messages"), std::string::npos);
  EXPECT_NE(text.find("8"), std::string::npos);
  EXPECT_NE(text.find("speed"), std::string::npos);
  EXPECT_NE(text.find("histogram lat"), std::string::npos);
}

// -- JSON validator edge cases (the exporters lean on all of these) ---------

TEST(ValidateJson, EscapedStringsAndExponents) {
  EXPECT_TRUE(validate_json(R"({"a\"b": "c\\d"})"));
  EXPECT_TRUE(validate_json(R"(["é", "\/", "\b\f"])"));
  EXPECT_TRUE(validate_json("[1e3, 1E+3, 1.5e-300, -0.0, 0.001]"));
  EXPECT_FALSE(validate_json(R"("bad \q escape")"));
  EXPECT_FALSE(validate_json(R"("short \u00g0")"));
  EXPECT_FALSE(validate_json("[1e]"));
  EXPECT_FALSE(validate_json("[1.]"));
  EXPECT_FALSE(validate_json("[.5]"));
  EXPECT_FALSE(validate_json("[+1]"));
}

TEST(ValidateJson, DeepNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) {
    deep += "[";
  }
  deep += "{\"leaf\": [0]}";
  for (int i = 0; i < 200; ++i) {
    deep += "]";
  }
  EXPECT_TRUE(validate_json(deep));
  deep.pop_back();  // unbalanced
  EXPECT_FALSE(validate_json(deep));
}

// -- log-spaced bounds + quantiles ------------------------------------------

TEST(Histogram, LogSpacedBoundsWalkDecades) {
  const std::vector<double> expect = {1e-3, 2e-3, 5e-3, 1e-2, 2e-2,
                                      5e-2, 0.1,  0.2,  0.5,  1.0};
  const std::vector<double> got = log_spaced_bounds(1e-3, 1.0);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], expect[i] * 1e-9) << "edge " << i;
  }
  // Endpoints that are not {1,2,5} mantissas still bracket the range.
  const std::vector<double> odd = log_spaced_bounds(3e-4, 0.4);
  EXPECT_GE(odd.front(), 3e-4);
  EXPECT_GE(odd.back(), 0.4);
  for (std::size_t i = 1; i < odd.size(); ++i) {
    EXPECT_LT(odd[i - 1], odd[i]);
  }
  EXPECT_THROW(log_spaced_bounds(0.0, 1.0), omx::Bug);
  EXPECT_THROW(log_spaced_bounds(1.0, 1.0), omx::Bug);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  // bounds {1,2,4}: 2 samples in (0,1], 2 in (1,2], none beyond.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.00), 2.0);
}

TEST(Histogram, QuantileEdgeCases) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_EQ(histogram_quantile(bounds, {0, 0, 0}, 0.5), 0.0);  // empty
  EXPECT_EQ(histogram_quantile({}, {}, 0.5), 0.0);             // no bounds
  // Everything in the overflow bucket clamps to the last edge.
  EXPECT_EQ(histogram_quantile(bounds, {0, 0, 5}, 0.5), 2.0);
  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(histogram_quantile(bounds, {4, 0, 0}, -1.0),
            histogram_quantile(bounds, {4, 0, 0}, 0.0));
  EXPECT_EQ(histogram_quantile(bounds, {4, 0, 0}, 2.0), 1.0);
}

TEST(Histogram, MemberQuantileMatchesFreeFunction) {
  Registry reg;
  Histogram& h = reg.histogram("q", log_spaced_bounds(1e-3, 1.0));
  for (int i = 1; i <= 100; ++i) {
    h.observe(i * 1e-3);  // ~uniform over (0, 0.1]
  }
  const double p50 = h.quantile(0.50);
  EXPECT_GT(p50, 0.02);
  EXPECT_LT(p50, 0.1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.50), p50);
}

TEST(Export, MetricsJsonCarriesPercentiles) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(0.6);
  h.observe(1.5);
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_TRUE(validate_json(json)) << json;
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p90\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
}

TEST(Export, TextSummaryShowsPercentilesAndBounds) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {0.25, 1.0});
  h.observe(0.2);
  h.observe(0.2);
  const std::string text = format_text(reg.snapshot());
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  EXPECT_NE(text.find("le 0.25"), std::string::npos);
  EXPECT_NE(text.find("le 1 "), std::string::npos);
  EXPECT_NE(text.find("overflow"), std::string::npos);
}

// -- span profile aggregation -----------------------------------------------

namespace {

TraceEvent make_event(const char* name, std::uint32_t tid,
                      std::int64_t start_ns, std::int64_t dur_ns) {
  TraceEvent ev;
  ev.name = name;
  ev.tid = tid;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  return ev;
}

}  // namespace

TEST(Profile, MergesNestedSpansAcrossThreads) {
  // Thread 1: solve [0,1000) containing two jac spans; thread 2: a
  // second solve [0,500). Same-name spans under the same parent merge.
  const std::vector<TraceEvent> events = {
      make_event("solve", 1, 0, 1000),
      make_event("jac", 1, 100, 200),
      make_event("jac", 1, 400, 100),
      make_event("solve", 2, 0, 500),
  };
  const Profile prof = aggregate_profile(events);
  EXPECT_EQ(prof.wall_ns, 1000);
  ASSERT_EQ(prof.nodes.size(), 2u);
  const ProfileNode& solve = prof.nodes[0];
  EXPECT_EQ(solve.name, "solve");
  EXPECT_EQ(solve.depth, 0);
  EXPECT_EQ(solve.count, 2u);
  EXPECT_EQ(solve.total_ns, 1500);
  EXPECT_EQ(solve.self_ns, 1200);  // 1500 minus the 300 ns of jac
  const ProfileNode& jac = prof.nodes[1];
  EXPECT_EQ(jac.name, "jac");
  EXPECT_EQ(jac.depth, 1);
  EXPECT_EQ(jac.count, 2u);
  EXPECT_EQ(jac.total_ns, 300);
  EXPECT_EQ(jac.self_ns, 300);
}

TEST(Profile, SiblingsDoNotNestAndPercentilesAreNearestRank) {
  // Back-to-back spans at the same level (the second starts exactly when
  // the first ends) must be siblings, not parent/child.
  const std::vector<TraceEvent> events = {
      make_event("a", 1, 0, 100),
      make_event("a", 1, 100, 300),
  };
  const Profile prof = aggregate_profile(events);
  ASSERT_EQ(prof.nodes.size(), 1u);
  EXPECT_EQ(prof.nodes[0].count, 2u);
  EXPECT_EQ(prof.nodes[0].depth, 0);
  EXPECT_EQ(prof.nodes[0].p50_ns, 300);  // nearest-rank of {100, 300}
  EXPECT_EQ(prof.nodes[0].p99_ns, 300);
}

TEST(Profile, EmptyBufferYieldsEmptyProfile) {
  const Profile prof = aggregate_profile(std::vector<TraceEvent>{});
  EXPECT_TRUE(prof.nodes.empty());
  EXPECT_EQ(prof.wall_ns, 0);
  EXPECT_NE(profile_text(prof).find("no spans"), std::string::npos);
  EXPECT_TRUE(validate_json(profile_json(prof)));
}

TEST(Export, ProfileJsonAndTextRoundTrip) {
  const std::vector<TraceEvent> events = {
      make_event("outer \"q\"", 1, 0, 1000),
      make_event("inner", 1, 200, 400),
  };
  const Profile prof = aggregate_profile(events);
  const std::string json = profile_json(prof);
  EXPECT_TRUE(validate_json(json)) << json;
  EXPECT_NE(json.find("\"wall_ns\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\": 600"), std::string::npos);
  const std::string text = profile_text(prof);
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("  inner"), std::string::npos);  // indented child
  EXPECT_NE(text.find("wall:"), std::string::npos);
}

// -- chrome trace metadata ------------------------------------------------

TEST(Export, ChromeTracePinsMetadataAndCounterTracks) {
  TraceBuffer tb;
  tb.start();
  tb.set_process_name("omx/test \"proc\"");
  tb.set_thread_name("driver");
  tb.record("span/a", "test", 1000, 500);
  tb.stop();
  const std::string json = chrome_trace_json(tb);
  EXPECT_TRUE(validate_json(json)) << json;
  // Metadata: a tid-less process_name record and a thread_name record
  // bound to this thread's dense id.
  EXPECT_NE(json.find("{\"ph\": \"M\", \"pid\": 1, \"name\": "
                      "\"process_name\", \"args\": {\"name\": "
                      "\"omx/test \\\"proc\\\"\"}}"),
            std::string::npos)
      << json;
  const std::string tid = std::to_string(TraceBuffer::thread_id());
  EXPECT_NE(json.find("{\"ph\": \"M\", \"pid\": 1, \"tid\": " + tid +
                      ", \"name\": \"thread_name\", \"args\": {\"name\": "
                      "\"driver\"}}"),
            std::string::npos)
      << json;
  // The span exports as a complete event, its ns times as fractional
  // microseconds.
  EXPECT_NE(json.find("{\"ph\": \"X\", \"pid\": 1, \"tid\": " + tid +
                      ", \"name\": \"span/a\", \"cat\": \"test\", "
                      "\"ts\": 1, \"dur\": 0.5}"),
            std::string::npos)
      << json;
}

// -- flight recorder: step events in the one store -----------------------

TEST(Recorder, DisabledRecordsNothing) {
  TraceBuffer rec(16);
  StepEvent ev;
  ev.kind = StepEventKind::kStepAccepted;
  rec.record(ev);  // never started: must be a no-op
  EXPECT_FALSE(rec.steps_active());
  EXPECT_TRUE(rec.step_events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  // Armed for spans only, step events stay off.
  rec.start(TraceBuffer::kSpans);
  rec.record(ev);
  EXPECT_FALSE(rec.steps_active());
  EXPECT_TRUE(rec.step_events().empty());
}

TEST(Recorder, OverflowDropsAndCountsInsteadOfBlocking) {
  TraceBuffer rec(8);
  rec.start(TraceBuffer::kSteps);
  for (int i = 0; i < 20; ++i) {
    StepEvent ev;
    ev.kind = StepEventKind::kStepAccepted;
    ev.method = "bdf";
    ev.t = i;
    rec.record(ev);
  }
  rec.stop();
  const std::vector<StepEvent> events = rec.step_events();
  ASSERT_EQ(events.size(), 8u);  // first `capacity` kept, rest dropped
  EXPECT_EQ(rec.dropped(), 12u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[i].t, i);  // startup survives, in order
  }
}

TEST(Recorder, StartResetsEventsAndDrops) {
  TraceBuffer rec(4);
  rec.start(TraceBuffer::kSpans | TraceBuffer::kSteps);
  for (int i = 0; i < 6; ++i) {
    rec.record(StepEvent{});
  }
  rec.record("span", "test", 0, 1);
  EXPECT_EQ(rec.step_events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.events().size(), 1u);
  rec.start(TraceBuffer::kSteps);  // fresh logs, spans included
  EXPECT_TRUE(rec.step_events().empty());
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(StepEvent{});
  EXPECT_EQ(rec.step_events().size(), 1u);
}

TEST(Recorder, MergedEventsAreTimeSortedAcrossThreads) {
  TraceBuffer rec(4096);
  rec.start(TraceBuffer::kSteps);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < 100; ++i) {
        StepEvent ev;
        ev.kind = StepEventKind::kStepAccepted;
        ev.method = "adams";
        rec.record(ev);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rec.stop();
  const std::vector<StepEvent> events = rec.step_events();
  ASSERT_EQ(events.size(), 400u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].when_ns, events[i].when_ns);
  }
}

TEST(Export, RecorderJsonRoundTrips) {
  TraceBuffer rec(16);
  rec.start(TraceBuffer::kSteps);
  StepEvent ev;
  ev.kind = StepEventKind::kJacEvaluate;
  ev.method = "bdf";
  ev.order = 3;
  ev.t = 0.25;
  ev.h = 1e-4;
  ev.err = 0.5;
  rec.record(ev);
  rec.stop();
  const std::string json = recorder_json(rec);
  EXPECT_TRUE(validate_json(json)) << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"capacity_per_thread\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"jac_evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"bdf\""), std::string::npos);
  EXPECT_NE(json.find("\"order\": 3"), std::string::npos);
  // An empty log is still a valid document.
  TraceBuffer empty(4);
  EXPECT_TRUE(validate_json(recorder_json(empty)));
}

}  // namespace
}  // namespace omx::obs
