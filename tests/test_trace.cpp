#include "util/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "io/artifacts.h"
#include "test_helpers.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mmr {
namespace {

/// Enables tracing on a clean buffer, restoring both on exit.
class TraceTest : public ::testing::Test {
 private:
  const testing::RecordingScope scope_{kRecTrace};
};

TEST(Trace, DisabledRecordsNothing) {
  const testing::RecordingScope scope;
  set_recording(recording_mask() & ~kRecTrace);
  {
    TraceSpan invisible("invisible");
    TraceSpan span("also_invisible");
    span.arg("k", std::int64_t{1});
  }
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST_F(TraceTest, NestedSpansShareTidAndContain) {
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
  }
  const std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() sorts by start time: outer began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The inner span lies within the outer span's interval.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST_F(TraceTest, ArgsAreRecorded) {
  {
    TraceSpan span("s");
    span.arg("count", std::uint64_t{7}).arg("label", std::string("x\"y"));
  }
  const std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "count");
  EXPECT_EQ(events[0].args[0].second, "7");
  EXPECT_EQ(events[0].args[1].second, "\"x\\\"y\"");  // pre-encoded JSON
}

TEST_F(TraceTest, ThreadExitFlushesWithDistinctTid) {
  { TraceSpan span("main_span"); }
  std::thread worker([] { TraceSpan span("worker_span"); });
  worker.join();  // buffer flushed by the worker's thread_local destructor
  const std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  {
    TraceSpan span("phase");
    span.arg("seed", std::uint64_t{42});
  }
  std::ostringstream os;
  Tracer::instance().write_chrome_json(os);
  const JsonValue root = json_parse(os.str());
  const JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.arr.size(), 1u);
  const JsonValue& e = events.at(std::size_t{0});
  EXPECT_EQ(e.at("name").str_v, "phase");
  EXPECT_EQ(e.at("ph").str_v, "X");
  EXPECT_DOUBLE_EQ(e.at("ts").num_v, 0.0);  // rebased to earliest span
  EXPECT_GE(e.at("dur").num_v, 0.0);
  EXPECT_DOUBLE_EQ(e.at("args").at("seed").num_v, 42.0);
}

TEST_F(TraceTest, TraceArtifactCarriesRunMeta) {
  { TraceSpan span("phase"); }
  RunMeta meta;
  meta.tool = "test_trace";
  meta.add("base_seed", std::uint64_t{7});
  std::ostringstream os;
  write_trace_json(os, Tracer::instance(), meta);
  const JsonValue root = json_parse(os.str());
  EXPECT_EQ(root.at("run_meta").at("tool").str_v, "test_trace");
  EXPECT_DOUBLE_EQ(root.at("run_meta").at("base_seed").num_v, 7.0);
  EXPECT_EQ(root.at("traceEvents").arr.size(), 1u);
}

TEST_F(TraceTest, SnapshotSeesLiveWorkerSpans) {
  // A pool worker's buffer only used to drain at thread exit; a snapshot
  // taken while the pool is alive must still include its completed spans.
  ThreadPool pool(2);
  pool.parallel_for(4, [](std::size_t) { TraceSpan span("pool_span"); });
  const std::vector<TraceEvent> events = Tracer::instance().snapshot();
  EXPECT_EQ(events.size(), 4u);  // pool threads still parked, nothing lost
  for (const TraceEvent& e : events) EXPECT_EQ(e.name, "pool_span");

  // The workers' buffers were drained, not duplicated: a second snapshot
  // returns the same events once.
  EXPECT_EQ(Tracer::instance().snapshot().size(), 4u);
}

TEST_F(TraceTest, ClearDiscardsEvents) {
  { TraceSpan span("s"); }
  Tracer::instance().clear();
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

}  // namespace
}  // namespace mmr
