// Property sweep over replication modes and replica counts: for every
// (mode, replicas, latency-model) combination, every subscriber receives
// every publication exactly once, and the wire-message fan-in/fan-out obeys
// the scheme's contract (paper II-B).
#include <gtest/gtest.h>

#include <memory>
#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "harness/cluster.h"

namespace dynamoth {
namespace {

enum class LatencyModel : std::uint8_t { kFixed = 0x00, kKing = 0xFF };

// gtest names each case after the raw bytes of its parameter, so the struct
// has no padding: every byte is a defined member and the case names are the
// same from one build to the next.
struct ReplicationParams {
  core::ReplicationMode mode;
  LatencyModel latency;
  std::uint16_t reserved;
  std::int32_t replicas;
  std::uint32_t seed;
};
static_assert(sizeof(ReplicationParams) == 12);
static_assert(std::has_unique_object_representations_v<ReplicationParams>);

constexpr ReplicationParams sweep_case(core::ReplicationMode mode, int replicas,
                                       LatencyModel latency) {
  return {mode, latency, 0, replicas,
          1000u + static_cast<std::uint32_t>(replicas) * 10u +
              static_cast<std::uint32_t>(mode)};
}

std::string param_name(const testing::TestParamInfo<ReplicationParams>& info) {
  std::string mode = core::to_string(info.param.mode);
  for (char& c : mode) {
    if (c == '-') c = '_';
  }
  return mode + "_x" + std::to_string(info.param.replicas) +
         (info.param.latency == LatencyModel::kKing ? "_king" : "_fixed");
}

class ReplicationSweep : public testing::TestWithParam<ReplicationParams> {};

TEST_P(ReplicationSweep, ExactlyOnceAndWireContract) {
  const ReplicationParams param = GetParam();

  harness::ClusterConfig config;
  config.seed = param.seed;
  config.initial_servers = 4;
  config.fixed_latency = param.latency == LatencyModel::kFixed;
  config.fixed_latency_value = millis(10);
  harness::Cluster cluster(config);

  const Channel c = "swept";
  const auto all_servers = cluster.server_ids();
  core::PlanEntry entry;
  entry.mode = param.mode;
  entry.version = 1;
  entry.servers.assign(all_servers.begin(),
                       all_servers.begin() + param.replicas);
  core::Plan plan;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);

  constexpr int kSubscribers = 12;
  constexpr int kPublishers = 6;
  constexpr int kRounds = 20;

  struct Sub {
    core::DynamothClient* client;
    std::set<MessageId> seen;
    int deliveries = 0;
  };
  std::vector<std::unique_ptr<Sub>> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    auto sub = std::make_unique<Sub>();
    sub->client = &cluster.add_client();
    Sub* raw = sub.get();
    sub->client->subscribe(c, [raw](const ps::EnvelopePtr& env) {
      raw->seen.insert(env->id);
      ++raw->deliveries;
    });
    subs.push_back(std::move(sub));
  }
  std::vector<core::DynamothClient*> pubs;
  for (int i = 0; i < kPublishers; ++i) {
    auto& p = cluster.add_client();
    p.absorb_entry(c, entry);  // steady-state configuration, like Fig 4
    pubs.push_back(&p);
  }
  cluster.sim().run_for(seconds(2));

  int published = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (auto* p : pubs) {
      p->publish(c, 64);
      ++published;
    }
    cluster.sim().run_for(millis(250));
  }
  cluster.sim().run_for(seconds(5));

  // Exactly-once delivery to every subscriber.
  for (const auto& sub : subs) {
    EXPECT_EQ(sub->seen.size(), static_cast<std::size_t>(published));
    EXPECT_EQ(sub->deliveries, published);
  }

  // Wire contract: all-publishers sends one copy per replica; the other
  // modes exactly one per publish.
  const std::uint64_t expected_per_publish =
      param.mode == core::ReplicationMode::kAllPublishers
          ? static_cast<std::uint64_t>(param.replicas)
          : 1u;
  for (auto* p : pubs) {
    EXPECT_EQ(p->stats().messages_sent,
              static_cast<std::uint64_t>(kRounds) * expected_per_publish);
  }

  // Placement contract: all-subscribers subscribes everywhere, the other
  // modes on exactly one server.
  for (const auto& sub : subs) {
    const auto placed = sub->client->subscription_servers(c);
    if (param.mode == core::ReplicationMode::kAllSubscribers) {
      EXPECT_EQ(placed.size(), static_cast<std::size_t>(param.replicas));
    } else {
      EXPECT_EQ(placed.size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ReplicationSweep,
    testing::Values(
        sweep_case(core::ReplicationMode::kNone, 1, LatencyModel::kFixed),
        sweep_case(core::ReplicationMode::kNone, 1, LatencyModel::kKing),
        sweep_case(core::ReplicationMode::kAllSubscribers, 2,
                   LatencyModel::kFixed),
        sweep_case(core::ReplicationMode::kAllSubscribers, 3,
                   LatencyModel::kFixed),
        sweep_case(core::ReplicationMode::kAllSubscribers, 4,
                   LatencyModel::kKing),
        sweep_case(core::ReplicationMode::kAllPublishers, 2,
                   LatencyModel::kFixed),
        sweep_case(core::ReplicationMode::kAllPublishers, 3,
                   LatencyModel::kKing),
        sweep_case(core::ReplicationMode::kAllPublishers, 4,
                   LatencyModel::kFixed)),
    param_name);

}  // namespace
}  // namespace dynamoth
