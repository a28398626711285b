// Tests for the shared balancer machinery: report ingestion and smoothing,
// attach/detach lifecycle, plan listener/delivery hooks.
#include "core/balancer_base.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

/// Minimal balancer: records decide() ticks, never changes plans.
class NullBalancer final : public BalancerBase {
 public:
  using BalancerBase::BalancerBase;
  using BalancerBase::publish_plan;  // widen for tests

  int decides = 0;

 protected:
  void decide() override { ++decides; }
};

struct Fixture {
  Fixture() {
    harness::ClusterConfig config;
    config.seed = 71;
    config.initial_servers = 2;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(5);
    cluster = std::make_unique<harness::Cluster>(config);
    node = cluster->network().add_node({net::NodeKind::kInfrastructure, 1e7});
    balancer = std::make_unique<NullBalancer>(cluster->sim(), cluster->registry(),
                                              cluster->base_ring(), node, &cluster->cloud(),
                                              BalancerBase::BaseConfig{});
  }

  /// Each call covers the next one-second window, so no report repeats one
  /// the balancer already holds.
  LoadReport report(ServerId server, double mbps, double capacity = 1.5e6) {
    LoadReport r;
    r.server = server;
    r.window_end = cluster->sim().now() + kSecond * windows++;
    r.window_start = r.window_end - kSecond;
    r.measured_out_bytes_per_sec = mbps * 1e6;
    r.advertised_capacity = capacity;
    return r;
  }

  std::unique_ptr<harness::Cluster> cluster;
  NodeId node = kInvalidNode;
  std::unique_ptr<NullBalancer> balancer;
  SimTime windows = 0;
};

TEST(BalancerBase, TickInvokesDecide) {
  Fixture f;
  f.balancer->start();
  f.cluster->sim().run_for(seconds(5) + millis(10));
  EXPECT_EQ(f.balancer->decides, 5);
}

TEST(BalancerBase, IngestedReportsDriveLoadRatios) {
  Fixture f;
  f.balancer->start();
  const auto servers = f.cluster->server_ids();
  f.balancer->ingest_report(f.report(servers[0], 0.75));
  f.balancer->ingest_report(f.report(servers[1], 1.5));
  EXPECT_NEAR(f.balancer->load_ratio(servers[0]), 0.5, 1e-9);
  EXPECT_NEAR(f.balancer->load_ratio(servers[1]), 1.0, 1e-9);
  EXPECT_NEAR(f.balancer->average_load_ratio(), 0.75, 1e-9);
  const auto [hot, lr] = f.balancer->max_load_ratio();
  EXPECT_EQ(hot, servers[1]);
  EXPECT_NEAR(lr, 1.0, 1e-9);
}

TEST(BalancerBase, LoadRatioSmoothsOverWindow) {
  Fixture f;
  f.balancer->start();
  const ServerId s = f.cluster->server_ids()[0];
  f.balancer->ingest_report(f.report(s, 0.0));
  f.balancer->ingest_report(f.report(s, 1.5));
  // Window of kLoadRatioWindow = 3: mean of {0, 1} = 0.5.
  EXPECT_NEAR(f.balancer->load_ratio(s), 0.5, 1e-9);
  f.balancer->ingest_report(f.report(s, 1.5));
  f.balancer->ingest_report(f.report(s, 1.5));
  // Oldest (0) rolled out: mean of {1, 1, 1}.
  EXPECT_NEAR(f.balancer->load_ratio(s), 1.0, 1e-9);
}

TEST(BalancerBase, RepeatedOrOlderWindowIsIgnored) {
  Fixture f;
  f.balancer->start();
  const ServerId s = f.cluster->server_ids()[0];
  const LoadReport first = f.report(s, 0.0);
  const LoadReport newest = f.report(s, 1.5);
  f.balancer->ingest_report(first);
  f.balancer->ingest_report(newest);
  EXPECT_NEAR(f.balancer->load_ratio(s), 0.5, 1e-9);
  // A second copy of the newest window, or an older one, changes nothing.
  f.balancer->ingest_report(newest);
  EXPECT_NEAR(f.balancer->load_ratio(s), 0.5, 1e-9);
  f.balancer->ingest_report(first);
  EXPECT_NEAR(f.balancer->load_ratio(s), 0.5, 1e-9);
}

TEST(BalancerBase, ReportsOlderThanMaxAgeArePurged) {
  Fixture f;
  f.balancer->start();
  const auto servers = f.cluster->server_ids();
  const ServerId silent = servers[0];
  const ServerId chatty = servers[1];
  f.balancer->ingest_report(f.report(silent, 1.5));  // window ends at t = 0
  ASSERT_NEAR(f.balancer->load_ratio(silent), 1.0, 1e-9);

  // A report exactly kReportMaxAge old still counts...
  f.cluster->sim().run_for(BalancerBase::kReportMaxAge + millis(10));
  EXPECT_NEAR(f.balancer->load_ratio(silent), 1.0, 1e-9);

  // ...and the next round drops it, while a fresh report survives.
  LoadReport fresh = f.report(chatty, 0.75);
  fresh.window_end = f.cluster->sim().now();
  fresh.window_start = fresh.window_end - kSecond;
  f.balancer->ingest_report(fresh);
  f.cluster->sim().run_for(BalancerBase::kTickInterval);
  EXPECT_EQ(f.balancer->load_ratio(silent), 0.0);
  EXPECT_NEAR(f.balancer->load_ratio(chatty), 0.5, 1e-9);
  EXPECT_EQ(f.balancer->max_load_ratio().first, chatty);
}

TEST(BalancerBase, ReportsForUnknownServersIgnored) {
  Fixture f;
  f.balancer->start();
  f.balancer->ingest_report(f.report(9999, 1.5));
  EXPECT_EQ(f.balancer->load_ratio(9999), 0.0);
  EXPECT_EQ(f.balancer->average_load_ratio(), 0.0);
}

TEST(BalancerBase, DetachRemovesFromAggregates) {
  Fixture f;
  f.balancer->start();
  const auto servers = f.cluster->server_ids();
  f.balancer->ingest_report(f.report(servers[0], 1.5));
  f.balancer->detach_server(servers[0]);
  EXPECT_EQ(f.balancer->active_server_count(), 1u);
  EXPECT_EQ(f.balancer->load_ratio(servers[0]), 0.0);
}

TEST(BalancerBase, PlanListenerAndEventsFireOnPublish) {
  Fixture f;
  f.balancer->start();
  int listened = 0;
  f.balancer->set_plan_listener(
      [&](const PlanPtr& plan, RebalanceKind kind) {
        ++listened;
        EXPECT_GT(plan->id(), 0u);
        EXPECT_EQ(kind, RebalanceKind::kHighLoad);
      });
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  EXPECT_EQ(listened, 1);
  ASSERT_EQ(f.balancer->events().size(), 1u);
  EXPECT_EQ(f.balancer->events()[0].kind, RebalanceKind::kHighLoad);
  EXPECT_EQ(f.balancer->current_plan()->id(), f.balancer->events()[0].plan_id);
}

TEST(BalancerBase, PlanDeliveryIsTheOnlyPlanTransport) {
  Fixture f;
  f.balancer->start();
  // Without a delivery hook the plan is recorded but nothing leaves the node.
  f.balancer->publish_plan(Plan{}, RebalanceKind::kLowLoad);
  f.cluster->sim().run_for(millis(100));
  EXPECT_EQ(f.balancer->events().size(), 1u);
  EXPECT_EQ(f.cluster->network().counters(f.node).messages_sent, 0u);

  std::vector<ServerId> delivered_to;
  f.balancer->set_plan_delivery([&](ServerId server, const PlanPtr& plan) {
    delivered_to.push_back(server);
    EXPECT_NE(plan, nullptr);
  });
  f.balancer->publish_plan(Plan{}, RebalanceKind::kLowLoad);
  EXPECT_EQ(delivered_to.size(), 2u);
}

TEST(BalancerBase, IdleServerCarriesNoControlTraffic) {
  harness::ClusterConfig config;
  config.seed = 71;
  config.initial_servers = 2;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(5);
  harness::Cluster cluster(config);
  cluster.sim().run_for(millis(500));
  const auto servers = cluster.server_ids();
  std::map<ServerId, std::size_t> conns;
  std::map<ServerId, SimTime> cpu;
  std::map<ServerId, std::uint64_t> sent;
  for (ServerId s : servers) {
    conns[s] = cluster.server(s).connection_count();
    cpu[s] = cluster.server(s).cpu_time_executed();
    sent[s] = cluster.network().counters(s).messages_sent;
  }
  cluster.use_dynamoth({});
  cluster.sim().run_for(seconds(5) + millis(100));
  for (ServerId s : servers) {
    // The balancer opens no connection on the server, and the LLA's reports
    // cost the server's CPU nothing: they leave by a direct send.
    EXPECT_EQ(cluster.server(s).connection_count(), conns[s]);
    EXPECT_EQ(cluster.server(s).cpu_time_executed(), cpu[s]);
    EXPECT_GE(cluster.network().counters(s).messages_sent, sent[s] + 5);
  }
}

TEST(BalancerBase, PlanIdsIncrease) {
  Fixture f;
  f.balancer->start();
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  const std::uint64_t first = f.balancer->current_plan()->id();
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  EXPECT_GT(f.balancer->current_plan()->id(), first);
}

TEST(BalancerBase, RebalanceKindNames) {
  EXPECT_STREQ(to_string(RebalanceKind::kChannelLevel), "channel-level");
  EXPECT_STREQ(to_string(RebalanceKind::kHighLoad), "high-load");
  EXPECT_STREQ(to_string(RebalanceKind::kLowLoad), "low-load");
  EXPECT_STREQ(to_string(RebalanceKind::kHashing), "hashing");
}

}  // namespace
}  // namespace dynamoth::core
