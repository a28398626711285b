// Dispatcher (paper II-A, IV).
//
// One dispatcher runs colocated with each pub/sub server. It holds the full
// global plan and guarantees delivery during reconfiguration without
// modifying the pub/sub server:
//  - it observes every publication processed locally (the paper's dispatcher
//    subscribes locally to affected channels; colocation makes observation
//    free) and every subscription request;
//  - publications on channels this server does not own are forwarded to the
//    current owner(s), the publisher gets a kWrongServer reply on its control
//    channel, and local subscribers get one kSwitch notification on the data
//    channel (sent with the first publication after the plan change);
//  - while a channel recently moved *to* this server, publications are also
//    forwarded back to the old owner(s) still draining subscribers; the old
//    owner sends a kDrainNotice as soon as it has no subscribers left, and a
//    timeout bounds forwarding regardless (paper IV-A5);
//  - for replicated channels, a publication stamped with a stale entry
//    version is repaired by forwarding to the replicas the publisher missed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/consistent_hash.h"
#include "core/control.h"
#include "core/plan.h"
#include "core/registry.h"
#include "net/network.h"
#include "pubsub/remote_connection.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace dynamoth::core {

class Dispatcher final : public ps::LocalObserver {
 public:
  struct Config {
    /// How long to keep redirect/forwarding state for a moved channel; pairs
    /// with the clients' plan-entry timeout (paper IV-A5).
    SimTime forward_timeout = seconds(30);
    /// How long a server that *joined* an all-subscribers replica set keeps
    /// forwarding to the previous members (covers the window until their
    /// subscribers have subscribed here too). Much shorter than
    /// forward_timeout: it only spans switch propagation, not client-plan
    /// expiry.
    SimTime replica_join_sync = seconds(5);
    SimTime cleanup_interval = seconds(5);
  };

  struct Stats {
    std::uint64_t forwards_to_owner = 0;    // wrong-server publications forwarded
    std::uint64_t forwards_to_drain = 0;    // owner -> draining old servers
    std::uint64_t replica_repairs = 0;      // stale all-publishers fan-outs fixed
    std::uint64_t switches_sent = 0;
    std::uint64_t wrong_server_replies = 0; // publisher corrections
    std::uint64_t wrong_subscriber_replies = 0;
    std::uint64_t drain_notices_sent = 0;
    std::uint64_t drain_notices_received = 0;
    std::uint64_t plans_applied = 0;
  };

  Dispatcher(sim::Simulator& sim, net::Network& network, ServerRegistry& registry,
             std::shared_ptr<const ConsistentHashRing> base_ring, ServerId self,
             Config config, Rng rng);
  ~Dispatcher() override;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Registers as observer and subscribes to @ctl:disp locally.
  void start();
  void stop();

  /// Installs a new global plan (normally sent directly by the balancer).
  void apply_plan(PlanPtr plan);

  [[nodiscard]] const PlanPtr& current_plan() const { return plan_; }
  [[nodiscard]] ServerId self() const { return self_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Channels this dispatcher is currently redirecting away from self.
  [[nodiscard]] std::size_t redirecting_channels() const { return moved_away_.size(); }
  /// Channels for which self still forwards to draining old owners.
  [[nodiscard]] std::size_t draining_channels() const { return drain_.size(); }

  // ---- LocalObserver ----
  void on_publish(const ps::EnvelopePtr& env, std::size_t subscriber_count,
                  std::uint32_t publisher_weight) override;
  void on_subscribe(ps::ConnId conn, const Channel& channel, NodeId client_node) override;
  void on_unsubscribe(ps::ConnId conn, const Channel& channel, NodeId client_node) override;
  void on_punsubscribe(ps::ConnId conn, const std::string& pattern, NodeId client_node) override;
  void on_disconnect(ps::ConnId conn, const std::vector<Channel>& channels,
                     const std::vector<std::string>& patterns, ps::CloseReason reason) override;

 private:
  /// State for a channel that this server does not own but still receives
  /// traffic for (recently moved away, or stale/hash-fallback senders).
  struct MovedAway {
    PlanEntry target;        // where the channel lives now
    bool switch_sent = false;
    bool drain_notice_sent = false;
    SimTime expires = 0;
  };
  /// State for a channel this server owns while old owners still drain;
  /// each old owner carries its own forwarding deadline.
  struct Draining {
    std::map<ServerId, SimTime> old_owners;  // server -> forwarding deadline
  };
  /// State for a channel this server keeps owning across an entry change
  /// (e.g. the replica set grew): local subscribers must receive the new
  /// entry with the next publication so they re-place their subscriptions.
  struct PendingSwitch {
    PlanEntry target;
    SimTime expires = 0;
  };

  // Per-channel reconfiguration flags, indexed by dense ChannelId. Each bit
  // mirrors membership in one of the three reconfiguration maps below; the
  // per-publication path (handle_data on an owned channel — the steady
  // state) tests one byte instead of probing up to three hash maps. The
  // flags carry no payload: every map mutation site updates them, and they
  // only gate whether the authoritative map is consulted at all.
  static constexpr std::uint8_t kFlagMoved = 1;    // moved_away_ has cid
  static constexpr std::uint8_t kFlagDrain = 2;    // drain_ has cid
  static constexpr std::uint8_t kFlagPending = 4;  // pending_switch_ has cid

  void set_flag(ChannelId cid, std::uint8_t flag) {
    if (reconfig_.size() <= cid) reconfig_.resize(cid + 1, 0);
    reconfig_[cid] |= flag;
  }
  void clear_flag(ChannelId cid, std::uint8_t flag) {
    if (cid < reconfig_.size()) reconfig_[cid] &= static_cast<std::uint8_t>(~flag);
  }
  [[nodiscard]] std::uint8_t flags(ChannelId cid) const {
    return cid < reconfig_.size() ? reconfig_[cid] : 0;
  }

  void on_ctl_deliver(const ps::EnvelopePtr& env);
  void handle_data(const ps::EnvelopePtr& env, std::size_t subscriber_count);
  MovedAway& moved_state(ChannelId cid, const ResolvedEntry& target);
  /// Publishes a kSwitch carrying `target` on the data channel via the local
  /// server; returns false if no local connection exists yet.
  bool send_switch(const Channel& channel, const PlanEntry& target);
  void send_wrong_server(ClientId publisher, const Channel& channel, const ResolvedEntry& entry);
  void forward(const ps::EnvelopePtr& env, ServerId target, std::uint64_t entry_version);
  void maybe_send_drain_notice(ChannelId cid, const Channel& channel);
  void send_drain_notice(const Channel& channel, const PlanEntry& target);
  /// True when no local connection listens to `channel` — neither a plain
  /// subscription nor a matching pattern. Pattern listeners must hold
  /// forwarding open exactly like subscribers: a drain notice sent while a
  /// local PSUBSCRIBE still covers the channel would cut its stream off
  /// mid-reconfiguration. The pattern scan runs only when the plain count is
  /// already zero (cold path).
  [[nodiscard]] bool no_local_listeners(ps::PubSubServer& server, const Channel& channel) const {
    return server.subscriber_count(channel) == 0 && server.pattern_listener_count(channel) == 0;
  }
  /// Re-checks every moved-away channel covered by the released `patterns`
  /// and sends drain notices where no listeners remain (pattern teardown
  /// counterpart of the on_unsubscribe drain check).
  void release_pattern_holds(const std::vector<std::string>& patterns);
  ps::RemoteConnection* connection(ServerId server);
  ps::EnvelopePtr make_ctl(ps::MsgKind kind, Channel channel,
                           std::shared_ptr<const ps::ControlBody> body);
  void cleanup();

  sim::Simulator& sim_;
  net::Network& network_;
  ServerRegistry& registry_;
  std::shared_ptr<const ConsistentHashRing> base_ring_;
  ServerId self_;
  Config config_;
  Rng rng_;

  PlanPtr plan_;
  // Reconfiguration state is keyed by interned channel id: the lookups sit on
  // the per-publication path, and nothing iterates these maps in an
  // order-sensitive way (cleanup only erases). Draining keeps old_owners as
  // an ordered std::map so forwarding to multiple old owners stays in
  // deterministic ServerId order.
  std::unordered_map<ChannelId, MovedAway> moved_away_;
  std::unordered_map<ChannelId, Draining> drain_;
  std::unordered_map<ChannelId, PendingSwitch> pending_switch_;
  std::vector<std::uint8_t> reconfig_;  // by ChannelId; see kFlag* above
  std::map<ps::ConnId, ClientId> conn_clients_;  // learned from @ctl:c:<id> subs

  std::map<ServerId, std::unique_ptr<ps::RemoteConnection>> conns_;
  ps::RemoteConnection* local_conn_ = nullptr;  // == conns_[self_]
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  sim::PeriodicTask cleaner_;
  bool started_ = false;
};

}  // namespace dynamoth::core
