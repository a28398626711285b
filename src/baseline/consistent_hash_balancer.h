// The paper's comparator (V-D): plain consistent hashing as the balancing
// policy.
//
// "consistent hashing can not take individual server loads into account when
// a rebalancing occurs. Servers shed 1/N of their load to a newly deployed
// server, irrespective of their current load. ... Furthermore, this technique
// has to spawn a new server every time a rebalancing occurs."
//
// When any server's load ratio crosses lr_high, a new server is rented and
// added to an internal ring; the emitted plan maps every known channel to its
// ring position. No channel-level replication, no load-aware migration, no
// scale-down. Plans propagate through the identical lazy client/dispatcher
// machinery, so the comparison isolates the balancing policy.
#pragma once

#include "core/balancer_base.h"

namespace dynamoth::baseline {

class ConsistentHashBalancer final : public core::BalancerBase {
 public:
  struct Config {
    BaseConfig base;
    double lr_high = 0.85;        // same trigger as Dynamoth's high-load
    SimTime t_wait = seconds(15);  // same pacing
    std::size_t max_servers = 8;
    int virtual_nodes_per_server = 64;
  };

  struct Stats {
    std::uint64_t plans_generated = 0;
    std::uint64_t servers_spawned = 0;
  };

  ConsistentHashBalancer(sim::Simulator& sim, core::ServerRegistry& registry,
                         std::shared_ptr<const core::ConsistentHashRing> base_ring,
                         NodeId node, core::Cloud* cloud, Config config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return ch_stats_; }
  [[nodiscard]] const core::ConsistentHashRing& ring() const { return ring_; }

 protected:
  void decide() override;

 private:
  void emit_ring_plan();

  Config config_;
  Stats ch_stats_;
  core::ConsistentHashRing ring_;
  bool spawn_pending_ = false;
  bool ring_initialized_ = false;
};

}  // namespace dynamoth::baseline
