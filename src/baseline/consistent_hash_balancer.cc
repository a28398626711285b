#include "baseline/consistent_hash_balancer.h"

#include <set>

namespace dynamoth::baseline {

ConsistentHashBalancer::ConsistentHashBalancer(
    sim::Simulator& sim, core::ServerRegistry& registry,
    std::shared_ptr<const core::ConsistentHashRing> base_ring, NodeId node,
    core::Cloud* cloud, Config config)
    : BalancerBase(sim, registry, std::move(base_ring), node, cloud, config.base),
      config_(config),
      ring_(config.virtual_nodes_per_server) {}

void ConsistentHashBalancer::decide() {
  if (!ring_initialized_) {
    // Seed the internal ring with the initially attached fleet.
    for (ServerId id : active_servers()) ring_.add_server(id);
    ring_initialized_ = true;
  }
  if (spawn_pending_) return;
  if (sim_.now() - last_plan_time_ < config_.t_wait) return;

  const auto [_, lr_max] = max_load_ratio();
  if (lr_max < config_.lr_high) return;
  if (cloud_ == nullptr || active_server_count() >= config_.max_servers) return;

  // The only remedy consistent hashing has: add a server to the ring. Every
  // existing server sheds ~1/N of its channels to the newcomer, regardless
  // of which server is actually hot.
  spawn_pending_ = true;
  ++ch_stats_.servers_spawned;
  cloud_->request_spawn([this](ServerId id) {
    spawn_pending_ = false;
    attach_server(id);
    ring_.add_server(id);
    emit_ring_plan();
  });
}

void ConsistentHashBalancer::emit_ring_plan() {
  core::Plan plan = *current_plan();

  // Map every channel we have ever seen to its current ring position.
  std::set<Channel> known;
  for (const auto& [channel, _] : plan.entries()) known.insert(channel);
  for (ServerId id : active_servers()) {
    if (const core::LoadReport* report = latest_report(id)) {
      for (const auto& [channel, _] : report->channels) known.insert(channel);
    }
  }

  for (const Channel& channel : known) {
    const ServerId target = ring_.lookup(channel);
    const core::PlanEntry* old_entry = plan.find(channel);
    if (old_entry != nullptr && old_entry->servers.size() == 1 &&
        old_entry->primary() == target) {
      continue;  // unchanged
    }
    // A channel with no explicit entry resolves via the *base* ring on
    // clients; only emit an entry when the grown ring disagrees with it.
    if (old_entry == nullptr && base_ring_->lookup(channel) == target) continue;
    core::PlanEntry entry;
    entry.servers = {target};
    entry.mode = core::ReplicationMode::kNone;
    entry.version = (old_entry ? old_entry->version : 0) + 1;
    plan.set_entry(channel, entry);
  }

  ++ch_stats_.plans_generated;
  publish_plan(std::move(plan), core::RebalanceKind::kHashing);
}

}  // namespace dynamoth::baseline
