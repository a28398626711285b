#include "placement/maglev.h"

#include <cstdio>
#include <set>
#include <vector>

#include "common/hash.h"

namespace dynamoth::placement {

std::string MaglevPolicy::params() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "table=%u", table_.table_size());
  return buf;
}

int MaglevPolicy::remap(RoundOps& ops, ServerId draining) {
  // Known channels: everything measured this round plus everything already
  // pinned by the plan. Copied first — apply() mutates the plan.
  std::set<Channel> names;
  for (const ChannelLoad& cl : ops.channel_loads()) names.insert(*cl.name);
  for (const auto& [channel, _] : ops.plan().entries()) names.insert(channel);

  int changed = 0;
  for (const Channel& channel : names) {
    const core::PlanEntry current = ops.plan().resolve(channel, ops.base_ring());
    // Replicated channels are the micro balancer's business (Algorithm 1).
    if (current.mode != core::ReplicationMode::kNone) continue;
    const ServerId want = table_.lookup(channel);
    if (current.servers.size() == 1 && current.servers.front() == want) continue;
    core::PlanEntry entry;
    entry.servers = {want};
    entry.mode = core::ReplicationMode::kNone;
    entry.version = current.version + 1;
    char why[64];
    if (draining != kInvalidServer) {
      std::snprintf(why, sizeof why, "drain underloaded server %u", draining);
    } else {
      std::snprintf(why, sizeof why, "maglev remap (membership change)");
    }
    ops.apply(channel, entry, why);
    ops.note_migration();
    ++changed;
  }
  return changed;
}

void MaglevPolicy::system_rebalance(RoundOps& ops, bool scale_down_allowed) {
  const Limits& limits = ops.limits();
  const std::vector<ServerId> order = ops.servers_by_load({});
  if (order.empty()) return;

  // ---- membership drives everything: rebuild + near-minimal remap ----
  std::vector<ServerId> members(order.begin(), order.end());
  std::sort(members.begin(), members.end());
  if (members != table_.servers()) {
    table_.build(members);
    if (remap(ops, kInvalidServer) > 0) ops.set_kind(core::RebalanceKind::kHashing);
  }

  // ---- overload: placement is fixed by the table, so the only remedy is
  // renting a server (the rebuild next round spreads the load) ----
  ServerId hot = kInvalidServer;
  double p_max = -1;
  for (ServerId s : order) {
    const double p = ops.pressure(s);
    if (p > p_max) {
      hot = s;
      p_max = p;
    }
  }
  if (p_max >= 1.0) {
    ops.mark_overloaded();
    ops.set_kind(core::RebalanceKind::kHighLoad);
    ops.add_trigger("LR >= lr_high", hot, ops.est_lr(hot), limits.lr_high);
    ops.request_spawn();
    return;
  }

  // ---- scale-down: drop the least pressured non-ring server and let the
  // rebuilt table re-spread its channels ----
  if (!scale_down_allowed) return;
  const DrainGate gate = drain_gate(ops, order);
  const ServerId victim = gate.victim;
  if (victim == kInvalidServer) return;
  // The survivors absorb the victim's share; stay well clear of lr_safe.
  const double projected = gate.avg_lr * static_cast<double>(order.size()) /
                           static_cast<double>(order.size() - 1);
  if (projected >= limits.lr_safe) return;

  std::vector<ServerId> without;
  for (ServerId s : members) {
    if (s != victim) without.push_back(s);
  }
  table_.build(without);
  ops.add_trigger("avg LR < lr_low", victim, gate.avg_lr, limits.lr_low);
  remap(ops, victim);
  ops.set_kind(core::RebalanceKind::kLowLoad);
  ops.begin_drain(victim);
}

ServerId MaglevPolicy::emergency_home(RoundOps& ops, const Channel& channel) {
  const std::vector<ServerId> order = ops.servers_by_load({});
  if (order.empty()) return kInvalidServer;
  const std::set<ServerId> eligible(order.begin(), order.end());
  if (!table_.empty()) {
    // The table may still name the dead server; probe forward from the
    // channel's slot until a live owner turns up.
    const std::vector<ServerId>& slots = table_.entries();
    const std::size_t start = mix64(fnv1a64(channel)) % slots.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const ServerId s = slots[(start + i) % slots.size()];
      if (eligible.contains(s)) return s;
    }
  }
  return order.front();
}

}  // namespace dynamoth::placement
