#include "placement/policy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "placement/bounded_load.h"
#include "placement/greedy.h"
#include "placement/maglev.h"
#include "placement/maglev_table.h"
#include "fake_round_ops.h"

namespace dynamoth::placement {
namespace {

using test::FakeRoundOps;

constexpr PolicyKind kAllKinds[] = {PolicyKind::kGreedy, PolicyKind::kBoundedLoad,
                                    PolicyKind::kMaglev};

// ---- factory / naming ----

TEST(PolicyFactory, BuildsEveryKindWithMatchingName) {
  for (PolicyKind kind : kAllKinds) {
    PolicyConfig config;
    config.kind = kind;
    const auto policy = make_policy(config);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), to_string(kind));
  }
}

TEST(PolicyFactory, ParamsDescribeTunables) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.5;
  EXPECT_EQ(make_policy(config)->params(), "eps=0.50,vnodes=64");
  config.kind = PolicyKind::kMaglev;
  EXPECT_EQ(make_policy(config)->params(), "table=2039");
  config.kind = PolicyKind::kGreedy;
  EXPECT_EQ(make_policy(config)->params(), "");
}

// ---- Maglev table ----

TEST(MaglevTable, LookupIsDeterministicAndCoversAllBackends) {
  MaglevTable a, b;
  const std::vector<ServerId> servers = {3, 7, 11, 19};
  a.build(servers);
  b.build({19, 11, 7, 3});  // order-insensitive
  std::set<ServerId> seen;
  for (int i = 0; i < 500; ++i) {
    const Channel c = "c" + std::to_string(i);
    EXPECT_EQ(a.lookup(c), b.lookup(c));
    seen.insert(a.lookup(c));
  }
  EXPECT_EQ(seen.size(), servers.size());
}

TEST(MaglevTable, TableSplitsEvenly) {
  MaglevTable table(2039);
  table.build({1, 2, 3, 4, 5});
  std::map<ServerId, int> slots;
  for (ServerId s : table.entries()) slots[s]++;
  ASSERT_EQ(slots.size(), 5u);
  for (const auto& [server, count] : slots) {
    // Maglev bounds the spread to within ~1% of fair share at M >> N; be
    // generous and require within 20%.
    EXPECT_GT(count, 2039 / 5 * 0.8) << "server " << server;
    EXPECT_LT(count, 2039 / 5 * 1.2) << "server " << server;
  }
}

TEST(MaglevTable, RemovalDisruptionIsNearMinimal) {
  // The Maglev guarantee: when a backend leaves, (almost) only the keys it
  // owned move. Measure collateral movement among keys of surviving
  // backends; the paper's construction keeps it to a few percent.
  MaglevTable table(2039);
  table.build({1, 2, 3, 4, 5});
  const int keys = 8000;
  std::map<Channel, ServerId> before;
  for (int i = 0; i < keys; ++i) {
    const Channel c = "k" + std::to_string(i);
    before[c] = table.lookup(c);
  }
  table.build({1, 2, 4, 5});  // backend 3 leaves
  int victim_keys = 0, victim_moved = 0, collateral = 0, survivors = 0;
  for (const auto& [c, old] : before) {
    const ServerId now = table.lookup(c);
    if (old == 3u) {
      ++victim_keys;
      if (now != 3u) ++victim_moved;
    } else {
      ++survivors;
      if (now != old) ++collateral;
    }
  }
  EXPECT_EQ(victim_moved, victim_keys);  // every orphaned key re-homed
  EXPECT_LT(static_cast<double>(collateral) / survivors, 0.05)
      << collateral << " of " << survivors << " surviving keys moved";
}

TEST(MaglevTable, AdditionDisruptionIsNearMinimal) {
  MaglevTable table(2039);
  table.build({1, 2, 3, 4});
  const int keys = 8000;
  std::map<Channel, ServerId> before;
  for (int i = 0; i < keys; ++i) {
    const Channel c = "k" + std::to_string(i);
    before[c] = table.lookup(c);
  }
  table.build({1, 2, 3, 4, 5});
  int moved_to_new = 0, shuffled = 0;
  for (const auto& [c, old] : before) {
    const ServerId now = table.lookup(c);
    if (now == old) continue;
    if (now == 5u) ++moved_to_new;
    else ++shuffled;
  }
  // ~1/5 of keys should land on the newcomer; cross-survivor shuffles stay
  // marginal.
  EXPECT_GT(moved_to_new, keys / 10);
  EXPECT_LT(moved_to_new, keys / 3);
  EXPECT_LT(static_cast<double>(shuffled) / keys, 0.05);
}

TEST(MaglevTableDeathTest, NonPrimeTableSizeAborts) {
  EXPECT_DEATH(MaglevTable(2040), "");
}

TEST(MaglevTable, EmptyBuildClearsAndSingleBackendOwnsAll) {
  MaglevTable table(251);
  table.build({42});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(table.lookup("c" + std::to_string(i)), 42u);
  table.build({});
  EXPECT_TRUE(table.empty());
}

// ---- greedy through the interface ----

TEST(GreedyPolicy, RelievesHotServerByMigratingBusiestChannels) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  // Server 1 at LR 0.9 (past lr_high), server 2 idle.
  ops.mutable_plan().set_entry("a", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.mutable_plan().set_entry("b", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("a", 500);
  ops.offer("b", 400);

  GreedyPolicy greedy;
  greedy.system_rebalance(ops, true);

  EXPECT_TRUE(ops.overloaded());
  EXPECT_GE(ops.migrations(), 1u);
  EXPECT_EQ(ops.kind(), core::RebalanceKind::kHighLoad);
  // The busiest channel lands on the idle server.
  ASSERT_FALSE(ops.moves().empty());
  EXPECT_EQ(ops.moves().front().channel, "a");
  EXPECT_EQ(ops.moves().front().to, std::vector<ServerId>{2u});
}

TEST(GreedyPolicy, RequestsSpawnWhenMigrationIsStuck) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);  // alone and overloaded
  ops.mutable_plan().set_entry("a", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("a", 900);
  ops.allow_spawn(9, 1000);

  GreedyPolicy greedy;
  greedy.system_rebalance(ops, true);
  EXPECT_EQ(ops.spawns(), 1u);
}

// ---- the shared scale-down gate, through every policy ----

}  // namespace

// Names the parameter in test output ("greedy", not a raw byte).
void PrintTo(PolicyKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

class DrainGateTest : public ::testing::TestWithParam<PolicyKind> {
 protected:
  /// One round with scale-down allowed, on a nearly idle fleet: `a` offers
  /// 100 B/s against 1000 B/s servers, so the mean LR is below lr_low.
  void run_idle_round(FakeRoundOps& ops) {
    ops.mutable_plan().set_entry("a", core::PlanEntry{{2}, core::ReplicationMode::kNone, 1});
    ops.offer("a", 100);
    PolicyConfig config;
    config.kind = GetParam();
    make_policy(config)->system_rebalance(ops, true);
  }
};

TEST_P(DrainGateTest, DrainsIdleNonRingServer) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, false);  // rented
  run_idle_round(ops);
  EXPECT_EQ(ops.drained(), 2u);
  EXPECT_EQ(ops.kind(), core::RebalanceKind::kLowLoad);
  EXPECT_EQ(ops.plan().resolve("a", ops.base_ring()).servers, std::vector<ServerId>{1u});
}

TEST_P(DrainGateTest, NeverDrainsRingServers) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  run_idle_round(ops);
  EXPECT_EQ(ops.drained(), kInvalidServer);
}

TEST_P(DrainGateTest, NeverDrainsAtMinServers) {
  FakeRoundOps ops;
  ops.mutable_limits().min_servers = 2;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, false);
  run_idle_round(ops);
  EXPECT_EQ(ops.drained(), kInvalidServer);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DrainGateTest, ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           return info.param == PolicyKind::kBoundedLoad
                                      ? std::string("bounded_load")
                                      : std::string(to_string(info.param));
                         });

// ---- bounded load ----

TEST(BoundedLoadPolicy, EnforcesCapOnSkewedLoad) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.25;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.add_server(1, 10000, true);
  ops.add_server(2, 10000, true);
  // All load piled on server 1 (but below lr_high: the *bound*, not
  // pressure, must force the spread).
  for (int i = 0; i < 8; ++i) {
    ops.mutable_plan().set_entry("c" + std::to_string(i),
                                 core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
    ops.offer("c" + std::to_string(i), 500);
  }

  policy.system_rebalance(ops, true);

  const auto& stats = policy.last_round();
  ASSERT_TRUE(stats.ran);
  EXPECT_FALSE(stats.overflow);
  for (const auto& [server, assigned] : stats.assigned) {
    EXPECT_LE(assigned, stats.cap.at(server) + 1e-9) << "server " << server;
  }
  EXPECT_GE(ops.moves().size(), 1u);  // something was forwarded off server 1
}

TEST(BoundedLoadPolicy, StickyWhenLoadIsBalanced) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.add_server(1, 10000, true);
  ops.add_server(2, 10000, true);
  for (int i = 0; i < 8; ++i) ops.offer("c" + std::to_string(i), 100);
  policy.system_rebalance(ops, true);
  const std::size_t first_round_moves = ops.moves().size();

  // Same offered load again: placements must not churn.
  ops.reset_round();
  for (int i = 0; i < 8; ++i) ops.offer("c" + std::to_string(i), 100);
  policy.system_rebalance(ops, true);
  EXPECT_EQ(ops.moves().size(), 0u) << "round 1 moved " << first_round_moves
                                    << ", round 2 must be sticky";
}

TEST(BoundedLoadPolicy, OverflowFlagsAndSpawns) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.mutable_limits().lr_high = 0.85;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  // One channel alone exceeds every cap ((1+eps)*total/2 < total).
  ops.mutable_plan().set_entry("big", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("big", 1800);
  ops.offer("small", 10);
  ops.allow_spawn(9, 1000);

  policy.system_rebalance(ops, true);
  EXPECT_TRUE(policy.last_round().overflow);
  EXPECT_TRUE(ops.overloaded());
  EXPECT_EQ(ops.spawns(), 1u);
}

// ---- maglev policy (through the interface) ----

TEST(MaglevPolicy, PinsChannelsToTableOwnersOnMembershipChange) {
  MaglevPolicy policy;

  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  for (int i = 0; i < 12; ++i) ops.offer("c" + std::to_string(i), 10);
  policy.system_rebalance(ops, true);  // first build: membership {} -> {1,2}

  for (int i = 0; i < 12; ++i) {
    const Channel c = "c" + std::to_string(i);
    const core::PlanEntry entry = ops.plan().resolve(c, ops.base_ring());
    EXPECT_EQ(entry.servers, std::vector<ServerId>{policy.table().lookup(c)}) << c;
  }

  // Stable membership, stable load: no further churn.
  ops.reset_round();
  for (int i = 0; i < 12; ++i) ops.offer("c" + std::to_string(i), 10);
  policy.system_rebalance(ops, true);
  EXPECT_TRUE(ops.moves().empty());
}

// ---- emergency homing ----

TEST(EmergencyHome, DefaultPicksLeastPressuredServer) {
  GreedyPolicy greedy;
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  ops.mutable_plan().set_entry("x", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("x", 500);
  EXPECT_EQ(greedy.emergency_home(ops, "orphan"), 2u);
}

TEST(EmergencyHome, BoundedLoadWalksItsRing) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  for (int i = 0; i < 4; ++i) ops.offer("c" + std::to_string(i), 10);
  policy.system_rebalance(ops, true);  // syncs the internal ring
  const ServerId home = policy.emergency_home(ops, "orphan");
  EXPECT_TRUE(home == 1u || home == 2u);
}

}  // namespace
}  // namespace dynamoth::placement
