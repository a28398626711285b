// Failure injection: servers dying with live subscribers, plans referencing
// dead servers, and overload storms. The middleware must degrade to the
// consistent-hashing fallback and recover rather than wedge.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace dynamoth {
namespace {

harness::ClusterConfig config2(std::uint64_t seed = 41) {
  harness::ClusterConfig config;
  config.seed = seed;
  config.initial_servers = 2;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(10);
  return config;
}

core::Plan plan_on(const Channel& c, ServerId owner, std::uint64_t version) {
  core::Plan plan;
  core::PlanEntry entry;
  entry.servers = {owner};
  entry.version = version;
  plan.set_entry(c, entry);
  return plan;
}

TEST(Failure, ServerShutdownMidTrafficFallsBackToHashing) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "durable";
  // Both initial servers are ring members; pick a victim that is NOT the
  // channel's hash home so the fallback stays alive.
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId victim = servers[0] == home ? servers[1] : servers[0];

  // Move the channel onto the victim, run traffic, then kill the victim
  // without any plan migration (a crash, not a drain).
  cluster.install_plan(plan_on(c, victim, 1));
  auto& sub = cluster.add_client();
  int got = 0;
  sub.subscribe(c, [&](const ps::EnvelopePtr&) { ++got; });
  auto& pub = cluster.add_client();
  cluster.sim().run_for(seconds(2));
  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  ASSERT_EQ(got, 1);
  ASSERT_TRUE(sub.subscription_servers(c).contains(victim));

  cluster.despawn_server(victim);
  cluster.sim().run_for(seconds(3));  // reconnect delay + resubscribe

  // The subscriber fell back to the hash home.
  EXPECT_TRUE(sub.subscription_servers(c).contains(home));
  EXPECT_GE(sub.stats().connection_drops, 1u);

  // Publishing works again: the publisher's next publish hits the dead
  // server (connection refused -> fallback) or the home directly.
  pub.publish(c);
  pub.publish(c);
  cluster.sim().run_for(seconds(3));
  EXPECT_GE(got, 2);
}

TEST(Failure, PublishToDeadServerFallsBackWithoutCrash) {
  harness::Cluster cluster(config2(43));
  const auto servers = cluster.server_ids();
  const Channel c = "ghost";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId victim = servers[0] == home ? servers[1] : servers[0];

  // Publisher learns an entry pointing at the victim, then the victim dies.
  cluster.install_plan(plan_on(c, victim, 1));
  auto& pub = cluster.add_client();
  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  ASSERT_EQ(pub.plan_entry(c)->primary(), victim);

  cluster.despawn_server(victim);
  cluster.sim().run_for(seconds(2));

  auto& sub = cluster.add_client();
  int got = 0;
  sub.subscribe(c, [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(2));

  // The publisher's connection died with the server; on the next publish it
  // must not wedge. (Its entry still points at the victim; the connection
  // drop handler or the nullptr-connection path resolves via hashing.)
  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  EXPECT_GE(got, 1);
}

TEST(Failure, SubscriberStormRecoversAfterOverflow) {
  harness::ClusterConfig config = config2(47);
  config.pubsub.conn_drain_bytes_per_sec = 4000;
  config.pubsub.conn_output_buffer_limit = 4000;
  harness::Cluster cluster(config);
  const Channel c = "storm";

  auto& sub = cluster.add_client();
  int got = 0;
  sub.subscribe(c, [&](const ps::EnvelopePtr&) { ++got; });
  auto& pub = cluster.add_client();
  cluster.sim().run_for(seconds(1));

  // Storm: far beyond the drain rate; the connection must be dropped.
  for (int i = 0; i < 500; ++i) pub.publish(c, 200);
  cluster.sim().run_for(seconds(10));
  EXPECT_GE(sub.stats().connection_drops, 1u);

  // Calm: after reconnect, delivery resumes.
  const int before = got;
  for (int i = 0; i < 5; ++i) {
    pub.publish(c, 100);
    cluster.sim().run_for(seconds(1));
  }
  cluster.sim().run_for(seconds(2));
  EXPECT_GE(got, before + 4);
}

TEST(Failure, BalancerSurvivesServerChurn) {
  // Dynamoth balancer active while a non-ring server is spawned and later
  // crash-killed; the failure detector must notice the silence on its own
  // and the balancer must keep producing sane plans.
  harness::ClusterConfig config = config2(53);
  config.initial_servers = 1;
  config.server_capacity = 120e3;
  config.cloud.spawn_delay = seconds(2);
  harness::Cluster cluster(config);
  core::DynamothLoadBalancer::Config lb_config;
  lb_config.t_wait = seconds(5);
  lb_config.max_servers = 3;
  lb_config.base.detect_failures = true;
  auto& lb = cluster.use_dynamoth(lb_config);

  std::vector<std::unique_ptr<sim::PeriodicTask>> feeds;
  for (int i = 0; i < 6; ++i) {
    const Channel c = "feed" + std::to_string(i);
    for (int s = 0; s < 4; ++s) {
      cluster.add_client().subscribe(c, [](const ps::EnvelopePtr&) {});
    }
    auto* p = &cluster.add_client();
    feeds.push_back(std::make_unique<sim::PeriodicTask>(cluster.sim(), millis(60),
                                                        [p, c] { p->publish(c, 300); }));
    feeds.back()->start();
  }
  cluster.sim().run_for(seconds(40));
  ASSERT_GT(cluster.active_servers(), 1u);

  // Crash a spawned (non-ring) server without telling the balancer: only
  // the heartbeat detector can find out.
  ServerId victim = kInvalidServer;
  for (ServerId s : cluster.server_ids()) {
    if (!cluster.base_ring()->contains(s)) victim = s;
  }
  ASSERT_NE(victim, kInvalidServer);
  cluster.crash_server(victim);

  cluster.sim().run_for(seconds(60));

  // The detector suspected the victim and the emergency round audited it.
  bool suspected = false;
  for (const auto& ev : lb.liveness_events()) {
    suspected = suspected ||
                (ev.kind == core::BalancerBase::LivenessEvent::Kind::kSuspected &&
                 ev.server == victim);
  }
  EXPECT_TRUE(suspected);
  bool audited = false;
  for (const auto& rec : lb.audit().records()) {
    audited = audited || rec.suspected_server == victim;
  }
  EXPECT_TRUE(audited);

  // System still running: clients reconnected, plans still flowing, and the
  // dead server is not referenced as sole owner of active channels.
  for (int i = 0; i < 6; ++i) {
    const core::PlanEntry entry =
        lb.current_plan()->resolve("feed" + std::to_string(i), *cluster.base_ring());
    EXPECT_FALSE(entry.servers.size() == 1 && entry.primary() == victim) << i;
  }
  EXPECT_GT(lb.events().size(), 0u);
}

}  // namespace
}  // namespace dynamoth
