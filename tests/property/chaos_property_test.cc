// Randomized fault-schedule properties: under seeded chaos the system must
// never wedge, and with the reliability layer on, every gap the fault opened
// must be replayed — zero permanent loss.
//
// Determinism and never-wedges also run on a composed scenario: the same
// random faults plus a popularity spike, wildcard subscribers and the
// reliability layer in one run. Zero loss is not asserted there: under that
// composition replay does not close every gap (ROADMAP open item 4).
//
// Loss faults are excluded from the zero-loss property: the transport is
// TCP-like (a dropped segment is retransmitted and shows up as latency, not
// as a missing message), so random per-message loss is not a fault the
// delivery guarantee is defined against — it would starve the replay
// history service of the same messages the subscribers missed. The
// never-wedges property below runs with loss enabled.
#include <gtest/gtest.h>

#include "fault/schedule.h"
#include "harness/channel_scenario.h"

namespace dynamoth {
namespace {

harness::ChannelScenario chaos_config(std::uint64_t seed) {
  harness::ChannelScenario config = harness::failover_scenario();
  config.seed = seed;
  config.reliability = true;
  config.duration = seconds(50);
  config.drain = seconds(30);
  // Gap detection is relative to the first message each subscriber sees per
  // publisher; faults only start once that baseline exists.
  config.fault_delay = seconds(6);
  return config;
}

fault::FaultSchedule::RandomParams chaos_params() {
  fault::FaultSchedule::RandomParams params;
  // Ends by duration - fault_delay - ~9s: post-fault traffic re-triggers
  // gap detection for any tail the fault swallowed.
  params.horizon = seconds(35);
  params.faults = 4;
  // Outages must outlive the failure detector (4s timeout + 2 balancer
  // ticks), or the fleet never re-homes the victim's channels and the gap
  // stays open until the (excluded-by-config) original server returns.
  params.min_outage = seconds(8);
  params.mean_outage = seconds(10);
  params.max_outage = seconds(15);
  params.loss = false;  // see file comment
  return params;
}

// A 50x spike on channel 0 with a joining crowd, wildcard subscribers and
// the reliability layer, on top of whatever faults `config` carries.
harness::ChannelScenario composed(harness::ChannelScenario config) {
  config.spikes.spike(seconds(10), 0, 50.0, seconds(3), seconds(10), seconds(8),
                      /*join=*/4);
  config.pattern_subscribers = 2;
  config.reliability = true;
  return config;
}

class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeeds, RandomScheduleLosesNothingWithReliability) {
  harness::ChannelScenario config = chaos_config(GetParam());
  config.faults = fault::FaultSchedule::random(GetParam(), chaos_params());

  const harness::ChannelScenarioResult r = harness::run_channel_scenario(config);

  ASSERT_GT(r.published, 0u);
  ASSERT_FALSE(r.faults.empty());
  EXPECT_EQ(r.lost, 0u) << "permanent loss under seed " << GetParam();
  EXPECT_EQ(r.reliability_totals.gave_up, 0u);
  EXPECT_EQ(r.client_totals.publishes_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Same seed, same config -> identical run, down to fault times and window
// rows. The chaos subsystem must not break the repo's determinism invariant.
TEST(ChaosProperty, SameSeedIsDeterministic) {
  for (const bool compose : {false, true}) {
    SCOPED_TRACE(compose ? "composed" : "faults only");
    auto run = [compose] {
      harness::ChannelScenario config = chaos_config(42);
      config.faults = fault::FaultSchedule::random(42, chaos_params());
      return harness::run_channel_scenario(compose ? composed(config) : config);
    };
    const harness::ChannelScenarioResult a = run();
    const harness::ChannelScenarioResult b = run();

    EXPECT_EQ(a.published, b.published);
    EXPECT_EQ(a.delivered_unique, b.delivered_unique);
    EXPECT_EQ(a.duplicates, b.duplicates);
    EXPECT_EQ(a.first_fault, b.first_fault);
    EXPECT_EQ(a.first_suspicion, b.first_suspicion);
    EXPECT_EQ(a.lb_stats.emergency_rebalances, b.lb_stats.emergency_rebalances);
    EXPECT_EQ(a.client_totals.republishes, b.client_totals.republishes);
    EXPECT_EQ(a.liveness.size(), b.liveness.size());
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_EQ(a.faults[i].time, b.faults[i].time);
      EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
      EXPECT_EQ(a.faults[i].detail, b.faults[i].detail);
    }
  }
}

// Full fault menu (loss, latency spikes, degraded egress included), no
// reliability layer (and, composed, with it): the run must complete with
// traffic still flowing — nothing deadlocks, nothing crashes the simulation.
TEST(ChaosProperty, FullFaultMenuNeverWedges) {
  for (const bool compose : {false, true}) {
    SCOPED_TRACE(compose ? "composed" : "faults only");
    harness::ChannelScenario config = chaos_config(99);
    config.reliability = false;
    fault::FaultSchedule::RandomParams params = chaos_params();
    params.faults = 6;
    params.loss = true;
    params.latency_spikes = true;
    params.degrade = true;
    config.faults = fault::FaultSchedule::random(99, params);

    const harness::ChannelScenarioResult r =
        harness::run_channel_scenario(compose ? composed(config) : config);

    ASSERT_FALSE(r.faults.empty());
    EXPECT_GT(r.published, 0u);
    EXPECT_GT(r.delivered_unique, 0u);
    // Whatever was lost, the system came back: the tail windows deliver.
    EXPECT_GT(r.pre_fault_rate, 0.0);
  }
}

}  // namespace
}  // namespace dynamoth
