#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <thread>

#include "obs/trace_export.h"

namespace dynamoth::obs {
namespace {

// The recorder is process-global; every test starts from a clean slate.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace().clear();
    trace().set_enabled(true);
  }
  void TearDown() override {
    trace().clear();
    trace().set_enabled(false);
  }
};

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  trace().set_enabled(false);
  trace().instant(100, 1, "cat", "name");
  EXPECT_EQ(trace().recorded(), 0u);
  EXPECT_EQ(trace().size(), 0u);
}

TEST_F(TraceTest, InterningIsIdempotentAndStable) {
  const TraceStrId a = trace().intern("alpha");
  const TraceStrId b = trace().intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(trace().intern("alpha"), a);
  EXPECT_EQ(trace().intern(""), kEmptyTraceStr);
  EXPECT_EQ(trace().string_at(a), "alpha");
}

TEST_F(TraceTest, RecordsTypedEvents) {
  trace().instant(10, 1, "cat", "pub", "server", 3.0);
  trace().complete(20, 5, 2, "net", "send", "bytes", 400.0);
  trace().counter(30, 1, "lla", "load_ratio", 0.5);

  const auto events = trace().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_EQ(events[0].a1, 3.0);
  EXPECT_EQ(trace().string_at(events[0].name), "pub");
  EXPECT_EQ(events[1].phase, TracePhase::kComplete);
  EXPECT_EQ(events[1].dur, 5);
  EXPECT_EQ(events[2].phase, TracePhase::kCounter);
  EXPECT_EQ(events[2].a1, 0.5);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDrops) {
  trace().set_capacity(4);
  trace().set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    trace().instant(i, 0, "c", "e");
  }
  EXPECT_EQ(trace().recorded(), 10u);
  EXPECT_EQ(trace().size(), 4u);
  EXPECT_EQ(trace().dropped(), 6u);

  const auto events = trace().events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: the survivors are ts 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].ts, 6 + i);
  trace().set_capacity(TraceRecorder::kDefaultCapacity);
}

TEST_F(TraceTest, ClearKeepsInternedStrings) {
  const TraceStrId id = trace().intern("sticky");
  trace().instant(1, 0, "c", "e");
  trace().clear();
  EXPECT_EQ(trace().size(), 0u);
  EXPECT_EQ(trace().recorded(), 0u);
  EXPECT_EQ(trace().intern("sticky"), id);
}

TEST_F(TraceTest, ChromeExportIsWellFormed) {
  trace().set_track_name(1, "server 1");
  trace().instant(10, 1, "dispatcher", "plan-apply", "plan_id", 7.0);
  trace().complete(20, 5, 1, "net", "send", "bytes", 400.0);
  trace().counter(30, 1, "lla", "load_ratio", 0.25);

  std::ostringstream os;
  write_chrome_trace(trace(), os);
  const std::string json = os.str();

  // Structural spot checks (full JSON validity is exercised by loading the
  // fig7 trace in Perfetto; see EXPERIMENTS.md).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"server 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_id\":7"), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, HotMacroCompiledOutByDefault) {
  // The build defaults to DYNAMOTH_TRACING=OFF; this test pins the contract
  // that DYN_TRACE_HOT then costs nothing and records nothing.
  if constexpr (!kTraceHotCompiled) {
    DYN_TRACE_HOT(instant(1, 0, "hot", "event"));
    EXPECT_EQ(trace().recorded(), 0u);
  } else {
    DYN_TRACE_HOT(instant(1, 0, "hot", "event"));
    EXPECT_EQ(trace().recorded(), 1u);
  }
}

TEST(TraceRecorder, NewThreadStartsFromAFreshRecorder) {
  // A thread's recorder is handed to a later thread when it exits; the later
  // thread must see it exactly like a fresh recorder.
  const TraceRecorder* first = nullptr;
  std::thread([&] {
    TraceRecorder& r = trace();
    first = &r;
    r.set_capacity(16);
    r.set_enabled(true);
    r.set_track_name(3, "server 3");
    r.instant(seconds(1), 3, "thread-cat", "thread-name");
  }).join();

  const TraceRecorder* second = nullptr;
  bool enabled = true;
  std::size_t capacity = 0;
  std::size_t size = 1;
  std::uint64_t recorded = 1;
  bool no_tracks = false;
  TraceStrId first_id = kEmptyTraceStr;
  std::thread([&] {
    TraceRecorder& r = trace();
    second = &r;
    enabled = r.enabled();
    capacity = r.capacity();
    size = r.size();
    recorded = r.recorded();
    no_tracks = r.track_names().empty();
    first_id = r.intern("fresh");  // the first string after ""
  }).join();

  EXPECT_EQ(second, first);  // handed on, not leaked
  EXPECT_FALSE(enabled);
  EXPECT_EQ(capacity, TraceRecorder::kDefaultCapacity);
  EXPECT_EQ(size, 0u);
  EXPECT_EQ(recorded, 0u);
  EXPECT_TRUE(no_tracks);
  EXPECT_EQ(first_id, 1u);
}

}  // namespace
}  // namespace dynamoth::obs
