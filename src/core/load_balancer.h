// The Dynamoth load balancer (paper III).
//
// Aggregates LLA reports from every pub/sub server and, at most once per
// T_wait, generates a new plan in two steps:
//  1. channel-level rebalancing (Algorithm 1): decide per channel whether
//     all-subscribers / all-publishers replication should be (de)activated
//     and across how many servers;
//  2. system-level rebalancing, delegated to a pluggable PlacementPolicy
//     (src/placement). The default GreedyPolicy is the paper's Algorithm 2 —
//     migrate busiest channels off the most loaded server, rent new cloud
//     servers when nothing else helps — plus the low-load drain; alternative
//     policies (bounded-load hashing, Peak-EWMA, Maglev) slot into the same
//     round, audit log and emergency path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/balancer_base.h"
#include "placement/policy.h"

namespace dynamoth::core {

class DynamothLoadBalancer final : public BalancerBase {
 public:
  struct Config {
    BaseConfig base;

    SimTime t_wait = seconds(15);  // min time between plan generations

    // System-level thresholds (load ratios).
    double lr_high = 0.85;  // trigger high-load rebalancing
    double lr_safe = 0.70;  // migrate until the estimate drops below this
    double lr_low = 0.35;   // global average below this triggers scale-down

    // CPU-aware balancing (the paper's stated future work, VII): when
    // enabled, a server is also considered overloaded when its CPU
    // utilization exceeds cpu_high, and migrations account for per-channel
    // CPU cost reported by the LLAs. Off by default, like the paper.
    bool cpu_aware = false;
    double cpu_high = 0.85;
    double cpu_safe = 0.70;

    // Channel-level thresholds (Algorithm 1).
    bool enable_replication = true;
    double all_subs_threshold = 2700;   // P_ratio: publications per subscriber /s
    double publication_threshold = 1000;  // min publications/s
    double all_pubs_threshold = 90;     // S_ratio: subscribers per publication /s
    double subscriber_threshold = 250;  // min subscribers
    std::size_t max_replicas = 8;

    // Fleet sizing.
    std::size_t max_servers = 8;
    std::size_t min_servers = 1;
    /// Delay between emptying a server and releasing it (lets forwarding
    /// state and stale clients drain).
    SimTime despawn_drain_delay = seconds(30);

    /// Which placement policy fills the system-level rebalance slot. The
    /// default (greedy) reproduces the paper bit-for-bit.
    placement::PolicyConfig placement;
  };

  struct Stats {
    std::uint64_t plans_generated = 0;
    std::uint64_t channels_migrated = 0;
    std::uint64_t replications_started = 0;
    std::uint64_t replications_resized = 0;
    std::uint64_t replications_cancelled = 0;
    std::uint64_t servers_spawned = 0;
    std::uint64_t servers_released = 0;
    /// Out-of-round plans pushed because the failure detector fired.
    std::uint64_t emergency_rebalances = 0;
  };

  DynamothLoadBalancer(sim::Simulator& sim, ServerRegistry& registry,
                       std::shared_ptr<const ConsistentHashRing> base_ring, NodeId node,
                       Cloud* cloud, Config config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return lb_stats_; }
  /// The active placement policy (for inspection in tests/benches).
  [[nodiscard]] const placement::PlacementPolicy& policy() const { return *policy_; }

 protected:
  void decide() override;

  /// Emergency rebalance (outside the periodic T_wait round): purge the
  /// suspect, repair every plan entry that referenced it, re-home its
  /// ring-resolved channels, and broadcast the plan immediately.
  void handle_server_failure(ServerId server) override;

 private:
  /// Per-channel metrics aggregated across servers for one decision round.
  struct ChannelAggregate {
    double publications_per_sec = 0;
    double subscribers = 0;   // current total
    double publishers = 0;    // distinct, summed over servers
    double out_bytes_per_sec = 0;
  };
  /// Working state for one decision round.
  struct Round {
    Plan plan;                                  // being edited
    std::map<ServerId, double> est_out;         // estimated egress bytes/s
    std::map<ServerId, double> est_cpu;         // estimated CPU utilization
    std::map<ServerId, double> capacity;        // T_i
    std::map<ServerId, std::map<Channel, double>> rates;      // bytes/s per channel
    std::map<ServerId, std::map<Channel, double>> cpu_rates;  // CPU util per channel
    std::map<Channel, ChannelAggregate> channels;
    bool changed = false;
    bool overloaded = false;  // some server above lr_high this round
    RebalanceKind kind = RebalanceKind::kChannelLevel;
    obs::RebalanceRecord rec;  // decision context for the audit log
  };

  Round build_round() const;
  [[nodiscard]] double est_lr(const Round& r, ServerId s) const;
  [[nodiscard]] double est_cpu(const Round& r, ServerId s) const;
  /// Normalized load pressure: max of bandwidth LR relative to lr_high and
  /// (when cpu_aware) CPU utilization relative to cpu_high. >= 1 means the
  /// server is past a high threshold on some dimension.
  [[nodiscard]] double pressure(const Round& r, ServerId s) const;
  /// Measured per-channel CPU utilization on a server (fraction of a core),
  /// averaged over the report window.
  [[nodiscard]] std::map<Channel, double> channel_cpu_rates(ServerId server) const;

  /// Rewrites entries that reference servers no longer in the fleet (e.g.
  /// crashed or released out-of-band): dead members are dropped and
  /// orphaned channels land on the least-loaded live server.
  void repair_dead_entries(Round& r);
  /// Algorithm 1 over all channels; may flip replication modes.
  void channel_level_rebalance(Round& r);

  /// Moves all of `channel`'s estimated load to the entry's new placement
  /// and records the move (with `reason`) in the round's audit record.
  void apply_entry_change(Round& r, const Channel& channel, const PlanEntry& new_entry,
                          std::string reason);
  /// Least-loaded placement-eligible servers, excluding `exclude`.
  [[nodiscard]] std::vector<ServerId> servers_by_load(const Round& r,
                                                      const std::set<ServerId>& exclude) const;

  /// Returns true when a spawn was actually requested.
  bool request_spawn_if_possible();
  void release_server(ServerId server);
  /// Retires `victim` (already emptied by the policy) and schedules its
  /// release after the drain delay.
  void drain_server(Round& r, ServerId victim);

  /// Adapter giving the placement policy a mutable view of one Round.
  class RoundOpsImpl;

  Config config_;
  placement::Limits limits_;
  std::unique_ptr<placement::PlacementPolicy> policy_;
  std::string policy_desc_;  // "greedy" / "bounded-load(eps=0.25,...)"
  Stats lb_stats_;
  bool spawn_pending_ = false;
  bool force_decide_ = false;  // bypass t_wait once (fresh server arrived)
  std::set<ServerId> releasing_;
};

}  // namespace dynamoth::core
