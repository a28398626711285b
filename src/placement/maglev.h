// Maglev placement: the stateless fallback mapping done with a Maglev lookup
// table instead of a virtual-node ring. The policy keeps a table over the
// eligible fleet and pins every known channel to its table owner via explicit
// plan entries (entries matching the base ring are left implicit). Membership
// changes rebuild the table; Maglev's construction keeps the resulting remap
// near-minimal. Overload has one remedy — rent a server — because placement
// is a pure function of the membership; there is no per-channel migration.
#pragma once

#include "placement/maglev_table.h"
#include "placement/policy.h"

namespace dynamoth::placement {

class MaglevPolicy final : public PlacementPolicy {
 public:
  /// Lookup table size: prime, and >> max_servers * 100 for even splits
  /// (Maglev paper section 3.4).
  static constexpr std::uint32_t kTableSize = 2039;

  MaglevPolicy() : table_(kTableSize) {}

  [[nodiscard]] const char* name() const override { return "maglev"; }
  [[nodiscard]] std::string params() const override;

  void system_rebalance(RoundOps& ops, bool scale_down_allowed) override;
  [[nodiscard]] ServerId emergency_home(RoundOps& ops, const Channel& channel) override;

  [[nodiscard]] const MaglevTable& table() const { return table_; }

 private:
  /// Re-pins every known channel (measured or in the plan) to its table
  /// owner. Returns the number of entries changed.
  int remap(RoundOps& ops, ServerId draining);

  MaglevTable table_;
};

}  // namespace dynamoth::placement
