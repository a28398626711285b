// End-to-end reliability tests: gap detection, replay recovery, retries,
// and behaviour under real loss (output-buffer overflow disconnects).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/cluster.h"
#include "reliability/replay_service.h"
#include "reliability/reliable_subscriber.h"

namespace dynamoth::rel {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed = 83, std::size_t servers = 2) {
    harness::ClusterConfig config;
    config.seed = seed;
    config.initial_servers = servers;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(10);
    cluster = std::make_unique<harness::Cluster>(config);

    // The replay service runs as an infrastructure-node client.
    net::NodeConfig node_config;
    node_config.kind = net::NodeKind::kInfrastructure;
    node_config.egress_bytes_per_sec = 10e6;
    const NodeId node = cluster->network().add_node(node_config);
    service_client = std::make_unique<core::DynamothClient>(
        cluster->sim(), cluster->network(), cluster->registry(), cluster->base_ring(),
        node, 900'000, core::DynamothClient::Config{}, Rng(seed).fork("svc"));
    service = std::make_unique<ReplayService>(cluster->sim(), *service_client,
                                              ReplayService::Config{});
    service->start();
  }

  std::unique_ptr<harness::Cluster> cluster;
  std::unique_ptr<core::DynamothClient> service_client;
  std::unique_ptr<ReplayService> service;
};

TEST(Replay, SubscriberStatsSumEveryField) {
  ReliableSubscriber::Stats a{1, 2, 3, 4, 5};
  const ReliableSubscriber::Stats b{100, 200, 300, 400, 500};
  a += b;
  EXPECT_EQ(a.delivered, 101u);
  EXPECT_EQ(a.gaps_detected, 202u);
  EXPECT_EQ(a.replays_requested, 303u);
  EXPECT_EQ(a.recovered, 404u);
  EXPECT_EQ(a.gave_up, 505u);
}

TEST(Replay, ServiceRecordsCoveredChannels) {
  Fixture f;
  f.service->cover("game");
  auto& pub = f.cluster->add_client();
  f.cluster->sim().run_for(seconds(1));
  for (int i = 0; i < 20; ++i) pub.publish("game", 64);
  f.cluster->sim().run_for(seconds(2));
  EXPECT_EQ(f.service->stats().recorded, 20u);
  EXPECT_EQ(f.service->store().stored("game"), 20u);
}

TEST(Replay, GapIsDetectedAndRecovered) {
  Fixture f;
  f.service->cover("events");
  auto& pub = f.cluster->add_client();
  auto& sub_client = f.cluster->add_client();
  ReliableSubscriber sub(f.cluster->sim(), sub_client, {});

  std::set<std::uint64_t> got;
  sub.subscribe("events", [&](const ps::EnvelopePtr& env) { got.insert(env->channel_seq); });
  f.cluster->sim().run_for(seconds(1));

  // Deliver 1..3 normally.
  for (int i = 0; i < 3; ++i) pub.publish("events", 64);
  f.cluster->sim().run_for(seconds(1));
  ASSERT_EQ(got.size(), 3u);

  // Simulate loss: the subscriber misses 4..5 (unsubscribed window at the
  // raw client level while the service keeps recording).
  sub_client.unsubscribe("events");
  f.cluster->sim().run_for(millis(200));
  pub.publish("events", 64);  // seq 4
  pub.publish("events", 64);  // seq 5
  f.cluster->sim().run_for(seconds(1));
  sub.subscribe("events", [&](const ps::EnvelopePtr& env) { got.insert(env->channel_seq); });
  f.cluster->sim().run_for(seconds(1));

  // Next live message (seq 6) exposes the gap; replay fills 4..5.
  pub.publish("events", 64);
  f.cluster->sim().run_for(seconds(5));

  EXPECT_EQ(got, (std::set<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_GE(sub.stats().gaps_detected, 1u);
  EXPECT_EQ(sub.stats().recovered, 2u);
  EXPECT_EQ(sub.open_gaps(), 0u);
  EXPECT_GE(f.service->stats().replayed, 2u);
}

TEST(Replay, NoGapsNoRequests) {
  Fixture f;
  f.service->cover("steady");
  auto& pub = f.cluster->add_client();
  auto& sub_client = f.cluster->add_client();
  ReliableSubscriber sub(f.cluster->sim(), sub_client, {});
  int delivered = 0;
  sub.subscribe("steady", [&](const ps::EnvelopePtr&) { ++delivered; });
  f.cluster->sim().run_for(seconds(1));
  for (int i = 0; i < 50; ++i) {
    pub.publish("steady", 64);
    f.cluster->sim().run_for(millis(100));
  }
  f.cluster->sim().run_for(seconds(2));
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(sub.stats().gaps_detected, 0u);
  EXPECT_EQ(sub.stats().replays_requested, 0u);
}

TEST(Replay, GivesUpAfterRetriesWhenHistoryLost) {
  Fixture f;
  // Service with a tiny history: the gap will be evicted before replay.
  ReplayService::Config svc_config;
  svc_config.history_per_channel = 2;
  auto& svc_client2 = *f.service_client;  // reuse node? build a fresh service
  (void)svc_client2;
  f.service.reset();  // drop the default service
  f.service = std::make_unique<ReplayService>(f.cluster->sim(), *f.service_client, svc_config);
  f.service->start();
  f.service->cover("lossy");

  auto& pub = f.cluster->add_client();
  auto& sub_client = f.cluster->add_client();
  ReliableSubscriber::Config sub_config;
  sub_config.retry_interval = millis(500);
  sub_config.max_retries = 2;
  ReliableSubscriber sub(f.cluster->sim(), sub_client, sub_config);
  sub.subscribe("lossy", [](const ps::EnvelopePtr&) {});
  f.cluster->sim().run_for(seconds(1));

  pub.publish("lossy", 64);  // seq 1 delivered
  f.cluster->sim().run_for(seconds(1));
  sub_client.unsubscribe("lossy");
  f.cluster->sim().run_for(millis(200));
  for (int i = 0; i < 10; ++i) pub.publish("lossy", 64);  // seq 2..11, mostly evicted
  f.cluster->sim().run_for(seconds(1));
  sub.subscribe("lossy", [](const ps::EnvelopePtr&) {});
  f.cluster->sim().run_for(seconds(1));
  pub.publish("lossy", 64);  // seq 12 exposes gap 2..11
  f.cluster->sim().run_for(seconds(10));

  EXPECT_GE(sub.stats().gaps_detected, 1u);
  EXPECT_GT(sub.stats().gave_up, 0u);
  EXPECT_EQ(sub.open_gaps(), 0u);  // abandoned, not leaked
}

TEST(Replay, RecoversFromRealOverflowLoss) {
  // Force genuine message loss: the subscriber's connection overflows under
  // a burst, Redis drops it, messages published meanwhile are lost, and the
  // replay path restores them.
  harness::ClusterConfig config;
  config.seed = 89;
  config.initial_servers = 1;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(10);
  config.pubsub.conn_drain_bytes_per_sec = 3000;
  config.pubsub.conn_output_buffer_limit = 3000;
  harness::Cluster cluster(config);

  net::NodeConfig node_config;
  node_config.kind = net::NodeKind::kInfrastructure;
  node_config.egress_bytes_per_sec = 10e6;
  const NodeId node = cluster.network().add_node(node_config);
  core::DynamothClient service_client(cluster.sim(), cluster.network(), cluster.registry(),
                                      cluster.base_ring(), node, 900'001,
                                      core::DynamothClient::Config{}, Rng(3).fork("svc"));
  ReplayService::Config svc_config;
  svc_config.chunk_bytes = 1200;  // pace well under the tiny 3 kB buffer
  svc_config.chunk_interval = seconds(1);
  ReplayService service(cluster.sim(), service_client, svc_config);
  service.start();
  service.cover("burst");

  auto& pub = cluster.add_client();
  core::DynamothClient::Config cc;
  cc.reconnect_delay = millis(200);
  auto& sub_client = cluster.add_client(cc);
  ReliableSubscriber sub(cluster.sim(), sub_client, {});
  std::set<std::uint64_t> got;
  sub.subscribe("burst", [&](const ps::EnvelopePtr& env) { got.insert(env->channel_seq); });
  cluster.sim().run_for(seconds(1));

  // Establish the stream baseline (gap detection is relative to the last
  // sequence seen; a fresh subscriber does not pull pre-subscription
  // history).
  for (int i = 0; i < 3; ++i) {
    pub.publish("burst", 150);
    cluster.sim().run_for(millis(500));
  }
  ASSERT_EQ(got.size(), 3u);

  // Burst overwhelms the subscriber's tiny buffer; it gets dropped and
  // reconnects, losing a chunk of the stream.
  for (int i = 0; i < 120; ++i) pub.publish("burst", 150);
  cluster.sim().run_for(seconds(10));
  ASSERT_GE(sub_client.stats().connection_drops, 1u);

  // Trickle afterwards exposes the gap; replay restores the lost middle.
  for (int i = 0; i < 3; ++i) {
    pub.publish("burst", 150);
    cluster.sim().run_for(seconds(2));
  }
  cluster.sim().run_for(seconds(40));  // paced replay takes a while

  EXPECT_EQ(got.size(), 126u) << "lost " << 126 - got.size() << " of 126";
  EXPECT_GE(sub.stats().recovered, 1u);
  EXPECT_EQ(sub.open_gaps(), 0u);
}

}  // namespace
}  // namespace dynamoth::rel
