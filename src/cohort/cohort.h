// Cohort client: one object driving N statistically identical subscribers.
//
// The individual-client model (one DynamothClient + Player per user) caps
// experiments around 10^3-10^4 users — per-user sim cost, not broker cost,
// becomes the bottleneck. A Cohort collapses N members who share a channel
// and a behaviour distribution into ONE client whose aggregates are exact by
// construction rather than approximate:
//
//  - Subscription: one SUBSCRIBE on the wire carrying multiplicity N
//    (DynamothClient::Config::multiplicity -> RemoteConnection::
//    update_weight -> PubSubServer connection weight). The server's fan-out
//    accounting, the LLA's subscriber/delivery/byte counts, and the egress
//    occupancy all see exactly what N individual subscribers would have
//    produced (see DESIGN.md section 13 for the exactness argument).
//  - Publishing: the cohort publishes at N x the per-member rate — a seeded
//    thinned process (deterministic phase + optional duty-cycle thinning),
//    so the channel receives the same publication rate as N members each
//    publishing at the per-member rate.
//  - Receiving: ONE delivery event arrives per publication (the weighted
//    wire run; same-arrival events additionally coalesce in the network's
//    FanoutBatch buckets) and is expanded here into exact per-member counts:
//    deliveries += N, bytes += N x wire bytes, and the delivery-latency
//    histogram gains N entries at the observed latency via record_n. The
//    publish->own-delivery RTT is recorded ONCE per echo — in individual
//    mode only the publishing member records its round trip, so one sample
//    per publication is the exact-match rate.
//
// Everything is deterministic under a fixed seed, and the steady-state
// publish/deliver path allocates nothing (the guard test covers it).
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/small_function.h"
#include "common/types.h"
#include "core/client.h"
#include "metrics/histogram.h"
#include "sim/simulator.h"

namespace dynamoth::cohort {

struct CohortConfig {
  /// Channel every member subscribes to (e.g. a Mammoth tile channel).
  Channel channel;
  /// Member count N. 0 is a valid idle state (no subscription, no traffic);
  /// see Cohort::set_members.
  std::uint32_t members = 0;
  /// Publications per member per sim-second; the cohort publishes at
  /// members x this rate.
  double publish_rate_per_member = 3.0;
  /// Thinning probability: each aggregate tick publishes with this chance
  /// (a seeded Bernoulli draw when < 1). Models duty-cycled members (e.g.
  /// devices that only sometimes have a reading); Mammoth players publish
  /// every tick, so their cohorts run at 1.0 and draw nothing.
  double duty_cycle = 1.0;
  std::size_t payload_bytes = 140;
};

/// Aggregate statistics, exact by construction (see file comment).
struct CohortStats {
  std::uint64_t publications = 0;      // wire publications (aggregate rate)
  std::uint64_t ticks_thinned = 0;     // aggregate ticks skipped by duty_cycle
  std::uint64_t delivery_events = 0;   // wire delivery events received
  std::uint64_t member_deliveries = 0; // modeled per-member deliveries (x N)
  std::uint64_t member_bytes = 0;      // modeled per-member received bytes
  std::uint64_t echoes = 0;            // own publications heard back (RTT samples)
};

class Cohort {
 public:
  /// RTT sink: publish -> own-delivery round trip, one sample per echo
  /// (matches the individual-mode rate: only the publishing member records).
  using RttSink = SmallFunction<void(SimTime rtt), 48>;

  /// `delivery_latency` (optional) gains `members` entries per delivery via
  /// record_n — the exact per-member one-way latency population fig_scale
  /// reports p99 over.
  Cohort(sim::Simulator& sim, core::DynamothClient& client, CohortConfig config, Rng rng,
         RttSink rtt_sink, metrics::Histogram* delivery_latency = nullptr);
  ~Cohort();

  Cohort(const Cohort&) = delete;
  Cohort& operator=(const Cohort&) = delete;

  /// Subscribes (weight = members) and starts the aggregate publisher with a
  /// seeded phase. No-op when members == 0.
  void start();
  /// Unsubscribes and stops publishing.
  void stop();

  /// Resizes the cohort (member migration). Adjusts the client multiplicity
  /// — the wire subscription re-weights in place, no churn — and re-paces
  /// the aggregate publisher. 0 members parks the cohort (unsubscribed,
  /// silent) until a later resize revives it.
  void set_members(std::uint32_t members);

  [[nodiscard]] std::uint32_t members() const { return config_.members; }
  [[nodiscard]] const Channel& channel() const { return config_.channel; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const CohortStats& stats() const { return stats_; }
  [[nodiscard]] core::DynamothClient& client() { return client_; }
  [[nodiscard]] const core::DynamothClient& client() const { return client_; }

 private:
  [[nodiscard]] SimTime aggregate_period() const;
  void tick();
  void on_message(const ps::EnvelopePtr& env);

  sim::Simulator& sim_;
  core::DynamothClient& client_;
  CohortConfig config_;
  Rng rng_;
  RttSink rtt_sink_;
  metrics::Histogram* delivery_latency_;

  CohortStats stats_;
  bool active_ = false;      // start() called, not yet stop()
  bool subscribed_ = false;  // members > 0 and subscription placed
  sim::PeriodicTask ticker_;
};

}  // namespace dynamoth::cohort
