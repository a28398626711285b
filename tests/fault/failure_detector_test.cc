#include "fault/failure_detector.h"

#include <gtest/gtest.h>

namespace dynamoth::fault {
namespace {

TEST(FailureDetector, TimeoutModeSuspectsAfterSilence) {
  FailureDetector det;
  det.watch(1, seconds(0));
  for (int t = 1; t <= 4; ++t) det.heartbeat(1, seconds(t));

  const SimTime last = seconds(4);
  EXPECT_FALSE(det.suspected(1, last + kDetectorTimeout - seconds(1)));
  EXPECT_FALSE(det.suspected(1, last + kDetectorTimeout));  // exactly at the bound
  EXPECT_TRUE(det.suspected(1, last + kDetectorTimeout + 1));
  EXPECT_EQ(det.silence(1, last + seconds(6)), seconds(6));
}

TEST(FailureDetector, WatchCountsAsFirstHeartbeat) {
  FailureDetector det;
  det.watch(7, seconds(100));
  // A fresh server gets the full grace period even if it never reported.
  EXPECT_FALSE(det.suspected(7, seconds(100) + kDetectorTimeout));
  EXPECT_TRUE(det.suspected(7, seconds(100) + kDetectorTimeout + seconds(1)));
}

TEST(FailureDetector, HeartbeatClearsSuspicion) {
  FailureDetector det;
  det.watch(1, 0);
  const SimTime late = kDetectorTimeout + seconds(1);
  ASSERT_TRUE(det.suspected(1, late));
  det.heartbeat(1, late);
  EXPECT_FALSE(det.suspected(1, late + seconds(1)));
}

TEST(FailureDetector, OlderHeartbeatDoesNotRewindSilence) {
  FailureDetector det;
  det.watch(1, 0);
  det.heartbeat(1, seconds(3));
  det.heartbeat(1, seconds(2));  // overtaken in transit
  EXPECT_EQ(det.silence(1, seconds(5)), seconds(2));
}

TEST(FailureDetector, ForgetStopsWatching) {
  FailureDetector det;
  det.watch(1, 0);
  det.forget(1);
  EXPECT_FALSE(det.watching(1));
  EXPECT_FALSE(det.suspected(1, seconds(60)));
  EXPECT_TRUE(det.suspects(seconds(60)).empty());
}

TEST(FailureDetector, SuspectsAreAscendingAndExhaustive) {
  FailureDetector det;
  det.watch(9, 0);
  det.watch(3, 0);
  det.watch(5, 0);
  const SimTime now = kDetectorTimeout + seconds(2);
  det.heartbeat(5, now - seconds(2));  // stays fresh
  const std::vector<ServerId> suspects = det.suspects(now);
  ASSERT_EQ(suspects.size(), 2u);
  EXPECT_EQ(suspects[0], 3u);
  EXPECT_EQ(suspects[1], 9u);
}

}  // namespace
}  // namespace dynamoth::fault
