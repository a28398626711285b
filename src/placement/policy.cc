#include "placement/policy.h"

#include "placement/bounded_load.h"
#include "placement/greedy.h"
#include "placement/maglev.h"

namespace dynamoth::placement {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedy:
      return "greedy";
    case PolicyKind::kBoundedLoad:
      return "bounded-load";
    case PolicyKind::kMaglev:
      return "maglev";
  }
  return "?";
}

DrainGate drain_gate(const RoundOps& ops, const std::vector<ServerId>& order) {
  const Limits& limits = ops.limits();
  DrainGate gate;
  if (order.size() <= limits.min_servers) return gate;

  // Global average estimated load ratio.
  for (ServerId s : order) gate.avg_lr += ops.est_lr(s);
  gate.avg_lr /= static_cast<double>(order.size());
  if (gate.avg_lr >= limits.lr_low) return gate;

  for (ServerId s : order) {  // least pressured first
    if (!ops.base_ring().contains(s)) {
      gate.victim = s;
      break;
    }
  }
  return gate;
}

ServerId PlacementPolicy::emergency_home(RoundOps& ops, const Channel& channel) {
  (void)channel;
  const std::vector<ServerId> order = ops.servers_by_load({});
  return order.empty() ? kInvalidServer : order.front();
}

std::unique_ptr<PlacementPolicy> make_policy(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kGreedy:
      return std::make_unique<GreedyPolicy>();
    case PolicyKind::kBoundedLoad:
      return std::make_unique<BoundedLoadPolicy>(config);
    case PolicyKind::kMaglev:
      return std::make_unique<MaglevPolicy>();
  }
  return std::make_unique<GreedyPolicy>();
}

}  // namespace dynamoth::placement
