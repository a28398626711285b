// Channel-scenario driver: one flat-channel deployment under changing load.
//
// Every scenario runs the same shape: "fc:<i>" channels with one publisher
// each, explicit subscribers on every channel, and optional wildcard
// (PSUBSCRIBE "fc:*") subscribers. Two declarative schedules drive it:
//  - a FlashCrowdSchedule, where a channel's popularity spikes ~100x within
//    seconds (an esports final, a breaking-news topic) and a crowd of fresh
//    subscribers piles on — an empty schedule is a fixed 10 Hz per channel;
//  - a fault::FaultSchedule that crashes servers, drops links and
//    partitions the fleet.
//
// The driver measures what each run's inputs make measurable:
//  - always: loss and duplicates at the explicit subscribers;
//  - with faults: how fast the control plane notices (detection latency) and
//    how fast delivery comes back (recovery latency);
//  - with pattern subscribers: the publications a wildcard listener missed
//    that every explicit subscriber received (the equivalence gate), and a
//    raw substrate PSUBSCRIBE arm (one server, no plan awareness) that
//    quantifies what the plan-unaware path misses;
//  - with reliability: the replay layer's gap and recovery counts. The
//    explicit subscribers are then wrapped in the gap-detecting replay
//    layer, served by a replay service on its own node.
//
// Plans are propagated eagerly to every client (the balancer's plan
// listener feeds absorb_entry): the lazy SWITCH/wrong-server protocol
// cannot re-home a channel whose only owner is dead, because there is no
// live server left to send the correction.
//
// Spike shapes are declarative data in the style of fault::FaultSchedule:
// plain structs with fluent builders, printable, seedable, and replayed
// bit-identically (the repo-wide determinism invariant).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/balancer_base.h"
#include "core/client.h"
#include "core/load_balancer.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "harness/cluster.h"
#include "metrics/histogram.h"
#include "obs/metrics_registry.h"
#include "placement/policy.h"
#include "reliability/reliable_subscriber.h"

namespace dynamoth::harness {

/// One popularity spike on one channel: the publish rate ramps linearly
/// from 1x to `publish_factor`, holds, then decays back, while
/// `join_subscribers` fresh clients pile onto the channel during the ramp.
struct SpikeEvent {
  SimTime at = 0;                  // relative to traffic start
  std::size_t channel = 0;         // index into the workload's channel list
  double publish_factor = 100.0;   // peak publish-rate multiplier
  SimTime ramp = seconds(3);       // 1x -> peak
  SimTime hold = seconds(10);      // at peak
  SimTime decay = seconds(8);      // peak -> 1x
  std::size_t join_subscribers = 0;  // explicit joiners, spread over the ramp
};

struct FlashCrowdSchedule {
  std::vector<SpikeEvent> events;

  // ---- fluent builders for hand-written scenarios ----
  FlashCrowdSchedule& spike(SimTime at, std::size_t channel, double factor,
                            SimTime ramp = seconds(3), SimTime hold = seconds(10),
                            SimTime decay = seconds(8), std::size_t join = 0);

  /// Publish-rate multiplier for `channel` at time `t` (relative to traffic
  /// start): the max over all spikes covering the instant, 1.0 outside any.
  [[nodiscard]] double factor_at(std::size_t channel, SimTime t) const;

  /// Orders events by time (stable: equal-time events keep insertion order).
  void sort();

  struct RandomParams {
    SimTime horizon = seconds(60);  // spikes start in [0, horizon]
    std::size_t spikes = 2;
    double min_factor = 50.0;
    double max_factor = 150.0;
    SimTime min_ramp = seconds(1);
    SimTime max_ramp = seconds(5);
    SimTime min_hold = seconds(5);
    SimTime max_hold = seconds(15);
    std::size_t max_join = 8;
  };

  /// Seeded random schedule over `channels` channels: same (seed, params,
  /// channels) -> identical events.
  [[nodiscard]] static FlashCrowdSchedule random(std::uint64_t seed,
                                                 const RandomParams& params,
                                                 std::size_t channels);
};

/// Only what callers actually vary; everything else (4 initial servers, a
/// 100 ms base publish interval, 200 B payloads, 2 s settle, 1 s metrics
/// windows, the scaled Algorithm 1 thresholds) is fixed in the driver.
/// Start from failover_scenario() or flashcrowd_scenario().
struct ChannelScenario {
  std::uint64_t seed = 1;
  std::size_t channels = 0;              // "fc:0" ... "fc:<n-1>"
  /// Plain clients; each subscribes to every channel explicitly (the
  /// reference arm: loss and duplicates are measured here).
  std::size_t explicit_subscribers = 0;
  /// Wildcard clients; each psubscribes "fc:*" and must match the explicit
  /// arm message-for-message. Nonzero also runs the raw substrate arm.
  std::size_t pattern_subscribers = 0;
  std::size_t max_servers = 0;           // the fleet starts at 4
  SimTime t_wait = 0;                    // balancer round interval
  bool enable_replication = false;       // Algorithm 1 replication
  /// Wrap every explicit subscriber in the gap-detecting replay layer.
  bool reliability = false;

  SimTime duration = 0;  // traffic (spikes are relative to its start)
  SimTime drain = 0;     // quiesce: replay retries, late windows

  fault::FaultSchedule faults;
  /// Injector arm time relative to traffic start. Schedules with faults
  /// near t=0 should leave a few seconds so every subscriber establishes
  /// its per-publisher sequence baseline first (gap detection is relative
  /// to the first message seen).
  SimTime fault_delay = 0;
  FlashCrowdSchedule spikes;

  /// Placement policy for the system-level rebalance slot (and the
  /// emergency re-home path the crash schedules exercise).
  placement::PolicyConfig placement;
  ClusterConfig cluster;  // seed/initial_servers overwritten
};

/// Failover shape: 6 channels, 3 explicit subscribers, a fixed fleet of 4
/// and replication off — crash recovery, not replication, is under study.
ChannelScenario failover_scenario();

/// Flash-crowd shape: 8 channels, 2 explicit and 2 wildcard subscribers,
/// up to 6 servers, short balancer rounds and replication on (a spike is
/// built to trip Algorithm 1), over fixed WAN latency.
ChannelScenario flashcrowd_scenario();

struct ChannelScenarioResult {
  obs::MetricsRegistry metrics;  // one row per window

  /// Publish-to-deliver latency (us) of every handler invocation, across all
  /// subscribers — the tail shows how long re-homed channels stalled.
  metrics::Histogram delivery_us;

  // ---- explicit subscribers, all channels ----
  std::uint64_t published = 0;
  std::uint64_t expected = 0;           // published x explicit_subscribers
  std::uint64_t delivered_unique = 0;   // distinct (subscriber, channel, seq)
  std::uint64_t lost = 0;               // expected - delivered_unique
  std::uint64_t duplicates = 0;         // handler invocations beyond unique
  std::uint64_t crowd_delivered_unique = 0;  // spike joiners, hot channel only

  // ---- faults (-1 when the schedule never fired) ----
  SimTime first_fault = -1;       // injector's first non-reversal event
  SimTime first_suspicion = -1;   // detector's first kSuspected at/after it
  SimTime detection_latency = -1;
  /// End of the first window at/after the suspicion whose delivery rate is
  /// back to >= 80% of the pre-fault mean (and the latency from the fault).
  SimTime recovery_time = -1;
  SimTime recovery_latency = -1;
  double pre_fault_rate = 0;  // delivered per window before the first fault

  // ---- pattern subscribers ----
  std::uint64_t pattern_delivered_unique = 0;
  std::uint64_t pattern_duplicates = 0;
  /// Publications every explicit subscriber received but some pattern
  /// subscriber did not — deliverable messages a wildcard listener missed.
  /// Nonzero means the plan-aware pattern path failed.
  std::uint64_t pattern_missing = 0;
  std::uint64_t patterns_expanded = 0;  // client-side pattern -> channel
  /// Raw substrate arm: publications it saw vs. silently missed.
  std::uint64_t raw_received = 0;
  std::uint64_t raw_missed = 0;

  std::uint64_t peak_servers = 0;
  std::vector<core::BalancerBase::LivenessEvent> liveness;
  std::vector<fault::FaultInjector::Applied> faults;
  fault::FaultInjector::Stats fault_stats;
  core::DynamothLoadBalancer::Stats lb_stats;
  core::DynamothClient::Stats client_totals;       // summed over all clients
  rel::ReliableSubscriber::Stats reliability_totals;  // zero when disabled
  std::string audit_timeline;  // human-readable rebalance audit dump
};

ChannelScenarioResult run_channel_scenario(const ChannelScenario& scenario);

}  // namespace dynamoth::harness
