// Unit tests for the Local Load Analyzer: per-channel metrics, distinct
// publishers, subscriber tracking, control-channel exclusion, report cadence
// and load-ratio computation.
#include "core/lla.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

/// Captures LLA reports at a probe node, on the same direct path the load
/// balancer receives them through.
struct ReportSink {
  explicit ReportSink(harness::Cluster& cluster, ServerId server) {
    const NodeId probe = cluster.network().add_node({net::NodeKind::kInfrastructure, 1e7});
    cluster.lla(server).set_report_target(
        probe, [this](const LoadReport& report) { reports.push_back(report); });
  }

  std::vector<LoadReport> reports;
};

harness::ClusterConfig config1() {
  harness::ClusterConfig config;
  config.seed = 5;
  config.initial_servers = 1;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(5);
  return config;
}

TEST(Lla, EmitsReportsEveryWindow) {
  harness::Cluster cluster(config1());
  ReportSink sink(cluster, cluster.server_ids()[0]);
  cluster.sim().run_for(seconds(5) + millis(100));
  EXPECT_GE(sink.reports.size(), 4u);
  EXPECT_LE(sink.reports.size(), 6u);
}

TEST(Lla, CountsPublicationsAndDeliveries) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  auto& pub = cluster.add_client();
  auto& sub1 = cluster.add_client();
  auto& sub2 = cluster.add_client();
  sub1.subscribe("c", [](const ps::EnvelopePtr&) {});
  sub2.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  for (int i = 0; i < 10; ++i) pub.publish("c");
  cluster.sim().run_for(seconds(3));

  std::uint64_t pubs = 0, deliveries = 0;
  std::uint32_t subscribers = 0;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("c");
    if (it == r.channels.end()) continue;
    pubs += it->second.publications;
    deliveries += it->second.deliveries;
    subscribers = std::max(subscribers, it->second.subscribers);
  }
  EXPECT_EQ(pubs, 10u);
  EXPECT_EQ(deliveries, 20u);
  EXPECT_EQ(subscribers, 2u);
}

TEST(Lla, TracksDistinctPublishers) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  std::vector<DynamothClient*> pubs;
  for (int i = 0; i < 5; ++i) pubs.push_back(&cluster.add_client());
  cluster.sim().run_for(millis(900));
  // All publish within one window, two messages each.
  for (auto* p : pubs) {
    p->publish("c");
    p->publish("c");
  }
  cluster.sim().run_for(seconds(2));
  std::uint32_t max_publishers = 0;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("c");
    if (it != r.channels.end()) max_publishers = std::max(max_publishers, it->second.publishers);
  }
  EXPECT_EQ(max_publishers, 5u);
}

TEST(Lla, ControlChannelsExcluded) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  auto& client = cluster.add_client();
  client.publish("data");  // also triggers @ctl:c subscription
  cluster.sim().run_for(seconds(3));
  for (const LoadReport& r : sink.reports) {
    for (const auto& [channel, _] : r.channels) {
      EXPECT_FALSE(is_control_channel(channel)) << channel;
    }
  }
}

TEST(Lla, SubscriberCountDropsOnUnsubscribeAndDisconnect) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  auto& a = cluster.add_client();
  auto& b = cluster.add_client();
  a.subscribe("c", [](const ps::EnvelopePtr&) {});
  b.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(2));
  a.unsubscribe("c");
  cluster.sim().run_for(seconds(2));
  b.shutdown();  // disconnect entirely
  cluster.sim().run_for(seconds(2));

  // The last report with channel "c" must show zero or no subscribers.
  std::uint32_t last_seen = 99;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("c");
    last_seen = it == r.channels.end() ? 0 : it->second.subscribers;
  }
  EXPECT_EQ(last_seen, 0u);
}

TEST(Lla, LoadRatioReflectsEgressVsCapacity) {
  harness::ClusterConfig config = config1();
  config.server_capacity = 100e3;  // 100 kB/s advertised
  harness::Cluster cluster(config);
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);

  auto& pub = cluster.add_client();
  auto& sub = cluster.add_client();
  sub.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  // ~50 kB/s of deliveries: 25 msg/s x (~2000 B wire).
  sim::PeriodicTask traffic(cluster.sim(), millis(40), [&] { pub.publish("c", 1900); });
  traffic.start();
  cluster.sim().run_for(seconds(10));
  traffic.stop();

  double max_lr = 0;
  for (const LoadReport& r : sink.reports) max_lr = std::max(max_lr, r.load_ratio());
  EXPECT_GT(max_lr, 0.3);
  EXPECT_LT(max_lr, 0.8);
  EXPECT_GT(cluster.lla(s).last_load_ratio(), 0.0);
}

TEST(Lla, InfrastructureSubscribersNotCounted) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  // An infrastructure-node subscription to a data channel is bookkeeping,
  // not a subscriber.
  ps::RemoteConnection infra(cluster.sim(), cluster.network(),
                             cluster.network().add_node({net::NodeKind::kInfrastructure, 1e7}),
                             cluster.server(s), nullptr, nullptr);
  infra.subscribe("c");
  auto& pub = cluster.add_client();
  cluster.sim().run_for(seconds(1));
  pub.publish("c");
  cluster.sim().run_for(seconds(2));
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("c");
    if (it != r.channels.end()) EXPECT_EQ(it->second.subscribers, 0u);
  }
}

TEST(Lla, QuietChannelsWithSubscribersStillReported) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);
  auto& sub = cluster.add_client();
  sub.subscribe("quiet", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(3));
  bool found = false;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("quiet");
    if (it != r.channels.end() && it->second.subscribers == 1 &&
        it->second.publications == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lla, PatternListenersAttributedToMatchedChannels) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);

  ps::RemoteConnection wild(cluster.sim(), cluster.network(),
                            cluster.network().add_node({net::NodeKind::kClient, 1e6}),
                            cluster.server(s), nullptr, nullptr);
  wild.psubscribe("lpa:*");
  auto& pub = cluster.add_client();
  cluster.sim().run_for(seconds(1));

  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] {
    pub.publish("lpa:1");
    pub.publish("other");
  });
  traffic.start();
  cluster.sim().run_for(seconds(3));
  traffic.stop();

  // The wildcard listener shows up as pattern weight on the channel it
  // matches — and only there — while plain `subscribers` stays untouched.
  bool attributed = false;
  for (const LoadReport& r : sink.reports) {
    auto hit = r.channels.find("lpa:1");
    if (hit == r.channels.end()) continue;
    if (hit->second.pattern_subscribers == 1) {
      attributed = true;
      EXPECT_EQ(hit->second.subscribers, 0u);
    }
    auto miss = r.channels.find("other");
    if (miss != r.channels.end()) {
      EXPECT_EQ(miss->second.pattern_subscribers, 0u);
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(Lla, PatternWeightDropsOnPunsubscribeAndDisconnect) {
  harness::Cluster cluster(config1());
  const ServerId s = cluster.server_ids()[0];
  ReportSink sink(cluster, s);

  auto wild_a = std::make_unique<ps::RemoteConnection>(
      cluster.sim(), cluster.network(),
      cluster.network().add_node({net::NodeKind::kClient, 1e6}), cluster.server(s),
      nullptr, nullptr);
  ps::RemoteConnection wild_b(cluster.sim(), cluster.network(),
                              cluster.network().add_node({net::NodeKind::kClient, 1e6}),
                              cluster.server(s), nullptr, nullptr);
  wild_a->psubscribe("lpb:*");
  wild_b.psubscribe("lpb:*");
  auto& pub = cluster.add_client();
  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] { pub.publish("lpb:1"); });
  traffic.start();
  cluster.sim().run_for(seconds(3));

  sink.reports.clear();
  wild_b.punsubscribe("lpb:*");
  cluster.sim().run_for(seconds(3));
  std::uint32_t after_punsub = 99;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("lpb:1");
    if (it != r.channels.end()) after_punsub = it->second.pattern_subscribers;
  }
  EXPECT_EQ(after_punsub, 1u);

  sink.reports.clear();
  wild_a.reset();  // close -> on_disconnect carries the pattern list
  cluster.sim().run_for(seconds(3));
  traffic.stop();
  std::uint32_t after_close = 99;
  for (const LoadReport& r : sink.reports) {
    auto it = r.channels.find("lpb:1");
    if (it != r.channels.end()) after_close = it->second.pattern_subscribers;
  }
  EXPECT_EQ(after_close, 0u);
}

}  // namespace
}  // namespace dynamoth::core
