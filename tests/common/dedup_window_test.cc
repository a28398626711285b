// Unit and seeded property tests for the client's duplicate filter. The
// property tests replay generated arrival streams against a reference model —
// an unbounded exact set of ids with their first-arrival times — and check
// the contract: a fresh id is never rejected, a duplicate within the horizon
// of its first copy is always rejected, and everything is forgotten once
// every publisher has been idle past the horizon.
#include "common/dedup_window.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"

namespace dynamoth {
namespace {

constexpr SimTime kHorizon = seconds(60);
constexpr SimTime kSweep = seconds(5);

TEST(DedupWindow, FirstArrivalIsFreshAndRepeatIsDuplicate) {
  DedupWindow w(kHorizon);
  EXPECT_TRUE(w.insert(MessageId{1, 1}, 0));
  EXPECT_TRUE(w.insert(MessageId{1, 2}, 0));
  EXPECT_TRUE(w.insert(MessageId{2, 1}, 0));
  EXPECT_FALSE(w.insert(MessageId{1, 1}, 10));
  EXPECT_FALSE(w.insert(MessageId{2, 1}, 10));
  EXPECT_EQ(w.publishers(), 2u);
  EXPECT_EQ(w.words(), 2u);
}

TEST(DedupWindow, OlderWordsSpillAndStillDeduplicate) {
  DedupWindow w(kHorizon);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) EXPECT_TRUE(w.insert(MessageId{7, seq}, 0));
  EXPECT_EQ(w.words(), 1000u / 64 + 1);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) EXPECT_FALSE(w.insert(MessageId{7, seq}, 1));
  EXPECT_EQ(w.publishers(), 1u);
}

TEST(DedupWindow, ReorderedArrivalsAreFreshOnce) {
  DedupWindow w(kHorizon);
  EXPECT_TRUE(w.insert(MessageId{3, 500}, 0));
  EXPECT_TRUE(w.insert(MessageId{3, 10}, 0));   // far behind the newest word
  EXPECT_TRUE(w.insert(MessageId{3, 499}, 0));  // same word, earlier seq
  EXPECT_FALSE(w.insert(MessageId{3, 10}, 0));
  EXPECT_FALSE(w.insert(MessageId{3, 499}, 0));
  EXPECT_FALSE(w.insert(MessageId{3, 500}, 0));
}

TEST(DedupWindow, SweepForgetsWordsPastTheHorizon) {
  DedupWindow w(kHorizon);
  w.insert(MessageId{1, 1}, 0);
  w.insert(MessageId{1, 100}, seconds(30));  // spills word 0
  w.sweep(kHorizon);                          // word 0 is exactly at the horizon: kept
  EXPECT_FALSE(w.insert(MessageId{1, 1}, kHorizon));
  w.sweep(kHorizon + seconds(31));  // word 0 restamped at 60 s: kept; word 1 stale
  EXPECT_EQ(w.words(), 1u);
  EXPECT_TRUE(w.insert(MessageId{1, 100}, kHorizon + seconds(31)));  // forgotten: accepted
  w.sweep(seconds(1000));
  EXPECT_EQ(w.publishers(), 0u);
  EXPECT_EQ(w.words(), 0u);
  EXPECT_EQ(w.bytes(), 0u);
}

TEST(DedupWindow, PublisherWithOnlySpilledWordsSurvivesSweep) {
  DedupWindow w(kHorizon);
  w.insert(MessageId{4, 1}, 0);
  w.insert(MessageId{4, 200}, 0);       // inline word 3, word 0 spilled
  w.insert(MessageId{4, 2}, seconds(50));  // restamps spilled word 0
  w.sweep(seconds(70));                 // inline word stale, spilled word live
  EXPECT_EQ(w.publishers(), 1u);
  EXPECT_EQ(w.words(), 1u);
  EXPECT_FALSE(w.insert(MessageId{4, 1}, seconds(70)));
  EXPECT_TRUE(w.insert(MessageId{4, 200}, seconds(70)));  // inline word forgotten
  w.sweep(seconds(200));
  EXPECT_EQ(w.publishers(), 0u);
}

TEST(DedupWindow, ClearReleasesStorage) {
  DedupWindow w(kHorizon);
  for (std::uint64_t p = 0; p < 100; ++p) w.insert(MessageId{p, p * 64}, 0);
  for (std::uint64_t seq = 0; seq < 6400; seq += 64) w.insert(MessageId{0, seq}, 0);
  EXPECT_GT(w.bytes(), 0u);
  w.clear();
  EXPECT_EQ(w.bytes(), 0u);
  EXPECT_EQ(w.publishers(), 0u);
  EXPECT_TRUE(w.insert(MessageId{5, 320}, 0));
}

TEST(DedupWindow, SlotStaleAtTheLastSweepIsForgottenInPlace) {
  DedupWindow w(kHorizon);
  w.insert(MessageId{1, 1}, 0);
  w.insert(MessageId{2, 1}, seconds(50));  // keeps the window from emptying
  const std::size_t bytes = w.bytes();
  w.sweep(seconds(61));  // origin 1's word is stale but still in its slot
  EXPECT_EQ(w.bytes(), bytes);
  EXPECT_EQ(w.words(), 1u);
  EXPECT_EQ(w.publishers(), 1u);
  EXPECT_TRUE(w.insert(MessageId{1, 1}, seconds(61)));
  EXPECT_FALSE(w.insert(MessageId{1, 1}, seconds(61)));
}

TEST(DedupWindow, WordRestampedAfterTheSweepSurvives) {
  DedupWindow w(kHorizon);
  w.insert(MessageId{1, 1}, 0);
  w.insert(MessageId{2, 1}, seconds(50));
  w.sweep(seconds(61));                                 // word 0 of origin 1 stale
  EXPECT_TRUE(w.insert(MessageId{1, 2}, seconds(62)));  // revives it, stamped 62 s
  w.sweep(seconds(100));                                // cutoff 40 s
  EXPECT_EQ(w.words(), 2u);
  EXPECT_FALSE(w.insert(MessageId{1, 2}, seconds(100)));
  EXPECT_TRUE(w.insert(MessageId{1, 1}, seconds(100)));  // forgotten before the revival
}

TEST(DedupWindow, StaleSlotsAreReusedSoStorageStaysFlat) {
  // 16 publishers each open a new word every second, so the live set is
  // constant (about one horizon of words) while every word turns over.
  DedupWindow w(kHorizon);
  std::size_t settled_bytes = 0;
  for (std::uint64_t s = 1; s <= 20 * 60; ++s) {
    const SimTime now = seconds(static_cast<double>(s));
    if (now % kSweep == 0) w.sweep(now);
    for (std::uint64_t p = 1; p <= 16; ++p) EXPECT_TRUE(w.insert(MessageId{p, s * 64}, now));
    if (s == 2 * 60) settled_bytes = w.bytes();
  }
  EXPECT_GT(settled_bytes, 0u);
  EXPECT_EQ(w.bytes(), settled_bytes);
  EXPECT_LE(w.words(), 16u * (60 + 5 + 1));
}

TEST(DedupWindow, DuplicateOneHorizonAfterTheLastArrivalIsRejected) {
  // Stamps have millisecond resolution; an arrival between two milliseconds
  // must still be remembered for the whole horizon.
  DedupWindow w(kHorizon);
  const SimTime arrival = millis(1.5);
  w.insert(MessageId{1, 1}, arrival);
  w.insert(MessageId{2, 1}, seconds(30));
  w.sweep(arrival + kHorizon);
  EXPECT_FALSE(w.insert(MessageId{1, 1}, arrival + kHorizon));
}

// ---- seeded property tests against the reference model ----

struct Arrival {
  SimTime at;
  MessageId id;
  friend bool operator<(const Arrival& a, const Arrival& b) {
    return std::tie(a.at, a.id) < std::tie(b.at, b.id);
  }
};

struct StreamShape {
  int publishers = 64;
  double rate = 3.0;          // publications/s per publisher
  double cohort_rate = 0.0;   // one extra publisher at this rate (0: none)
  SimTime duration = seconds(300);
  SimTime max_jitter = millis(200);  // per-copy delivery jitter (reordering)
  double dup_chance = 0.05;          // share of publications delivered twice
  SimTime max_dup_delay = seconds(90);  // duplicates land inside and past the horizon
};

/// Generates every delivery (first copies and duplicates) of a stream,
/// ordered by arrival time.
std::vector<Arrival> generate(const StreamShape& shape, Rng& rng) {
  std::vector<Arrival> out;
  auto emit = [&](std::uint64_t origin, double rate) {
    std::uint64_t seq = 0;
    for (SimTime t = rng.uniform_int(0, seconds(1)); t < shape.duration;
         t += static_cast<SimTime>(rng.exponential(kSecond / rate)) + 1) {
      // A publisher's sequence spans channels: a receiver sees only some seqs.
      seq += static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      const MessageId id{origin, seq};
      out.push_back({t + rng.uniform_int(0, shape.max_jitter), id});
      if (rng.chance(shape.dup_chance)) {
        out.push_back({t + rng.uniform_int(0, shape.max_dup_delay), id});
      }
    }
  };
  for (int p = 0; p < shape.publishers; ++p) emit(static_cast<std::uint64_t>(p) + 1, shape.rate);
  if (shape.cohort_rate > 0) emit(0x1000'0000'0000'0000ull, shape.cohort_rate);
  std::sort(out.begin(), out.end());
  return out;
}

struct Replay {
  std::uint64_t fresh = 0;
  std::uint64_t dups_in_horizon = 0;
  std::uint64_t dups_past_horizon = 0;
};

/// Replays `arrivals` through `w`, sweeping every kSweep like the client, and
/// checks each decision against the reference model.
Replay replay(DedupWindow& w, const std::vector<Arrival>& arrivals) {
  std::map<MessageId, SimTime> first_seen;  // unbounded exact reference
  Replay r;
  SimTime next_sweep = kSweep;
  for (const Arrival& a : arrivals) {
    while (next_sweep <= a.at) {
      w.sweep(next_sweep);
      next_sweep += kSweep;
    }
    const bool accepted = w.insert(a.id, a.at);
    auto [it, fresh] = first_seen.try_emplace(a.id, a.at);
    if (fresh) {
      EXPECT_TRUE(accepted) << "fresh id rejected: origin " << a.id.origin << " seq " << a.id.seq;
      ++r.fresh;
    } else if (a.at - it->second <= kHorizon) {
      EXPECT_FALSE(accepted) << "duplicate inside the horizon accepted: origin " << a.id.origin
                             << " seq " << a.id.seq << " after " << to_seconds(a.at - it->second)
                             << " s";
      ++r.dups_in_horizon;
    } else {
      ++r.dups_past_horizon;  // either answer is allowed
    }
  }
  return r;
}

void expect_empty_after_idle(DedupWindow& w, SimTime last_arrival) {
  w.sweep(last_arrival + kHorizon + 1);
  EXPECT_EQ(w.publishers(), 0u);
  EXPECT_EQ(w.words(), 0u);
  EXPECT_EQ(w.bytes(), 0u);
}

TEST(DedupWindowProperty, ManyPublishersWithReorderingAndLateDuplicates) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    StreamShape shape;
    shape.publishers = 512;
    const std::vector<Arrival> arrivals = generate(shape, rng);
    DedupWindow w(kHorizon);
    const Replay r = replay(w, arrivals);
    EXPECT_GT(r.dups_in_horizon, 1000u) << "seed " << seed;
    EXPECT_GT(r.dups_past_horizon, 100u) << "seed " << seed;
    expect_empty_after_idle(w, arrivals.back().at);
  }
}

TEST(DedupWindowProperty, CohortRatePublisherWithDeepReordering) {
  // A cohort publisher at 3,000 seq/s whose fresh copies arrive thousands of
  // seqs behind its newest, as cohort fan-out delivers them.
  for (std::uint64_t seed : {4u, 5u}) {
    Rng rng(seed);
    StreamShape shape;
    shape.publishers = 8;
    shape.cohort_rate = 3000;
    shape.duration = seconds(150);
    shape.max_jitter = seconds(1);
    shape.dup_chance = 0.01;
    const std::vector<Arrival> arrivals = generate(shape, rng);
    DedupWindow w(kHorizon);
    const Replay r = replay(w, arrivals);
    EXPECT_GT(r.fresh, 400'000u);
    EXPECT_GT(r.dups_in_horizon, 1000u);
    expect_empty_after_idle(w, arrivals.back().at);
  }
}

TEST(DedupWindowProperty, SweepPrunesPublishersOneHorizonAfterTheyFallSilent) {
  // Populations come and go in waves: each wave's publishers must be gone one
  // horizon (plus a sweep) after they fall silent.
  Rng rng(6);
  StreamShape shape;
  shape.publishers = 32;
  shape.duration = seconds(100);
  shape.max_dup_delay = seconds(30);
  DedupWindow w(kHorizon);
  std::map<MessageId, SimTime> first_seen;
  SimTime next_sweep = kSweep;
  SimTime offset = 0;
  for (std::uint64_t wave = 0; wave < 6; ++wave) {
    std::vector<Arrival> arrivals = generate(shape, rng);
    for (Arrival& a : arrivals) {
      a.at += offset;
      a.id.origin += wave * 1000;  // a fresh population per wave
    }
    for (const Arrival& a : arrivals) {
      while (next_sweep <= a.at) {
        w.sweep(next_sweep);
        next_sweep += kSweep;
      }
      const bool accepted = w.insert(a.id, a.at);
      auto [it, fresh] = first_seen.try_emplace(a.id, a.at);
      if (fresh) {
        EXPECT_TRUE(accepted);
      } else if (a.at - it->second <= kHorizon) {
        EXPECT_FALSE(accepted);
      }
    }
    // The previous population fell silent more than a horizon ago.
    EXPECT_LE(w.publishers(), static_cast<std::size_t>(shape.publishers)) << "wave " << wave;
    offset = arrivals.back().at + 1;
  }
  expect_empty_after_idle(w, offset);
}

TEST(DedupWindowProperty, StorageSettlesInSteadyState) {
  // 512 publishers at 3 seq/s with every tenth message duplicated 2 s late:
  // once arrivals and expiries balance, the tables stop growing, so the
  // steady state never allocates.
  DedupWindow w(kHorizon);
  constexpr std::uint64_t kPublishers = 512;
  constexpr SimTime kTick = millis(1000.0 / 3);
  std::size_t settled_bytes = 0;
  SimTime next_sweep = kSweep;
  for (std::uint64_t tick = 1; tick <= 5 * 180; ++tick) {
    const SimTime now = static_cast<SimTime>(tick) * kTick;
    while (next_sweep <= now) {
      w.sweep(next_sweep);
      next_sweep += kSweep;
    }
    for (std::uint64_t p = 1; p <= kPublishers; ++p) {
      EXPECT_TRUE(w.insert(MessageId{p, tick}, now));
      if (tick > 6 && tick % 10 == 0) {
        EXPECT_FALSE(w.insert(MessageId{p, tick - 6}, now));
      }
    }
    if (tick == 3 * 180) settled_bytes = w.bytes();
  }
  EXPECT_GT(settled_bytes, 0u);
  EXPECT_EQ(w.bytes(), settled_bytes);
  EXPECT_EQ(w.publishers(), kPublishers);
}

}  // namespace
}  // namespace dynamoth
