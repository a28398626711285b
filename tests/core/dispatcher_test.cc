// Unit tests for the dispatcher: plan diffing, switch emission, forwarding
// state lifecycle, wrong-subscriber replies and timer expiry.
#include "core/dispatcher.h"

#include <gtest/gtest.h>

#include <memory>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

harness::ClusterConfig config2() {
  harness::ClusterConfig config;
  config.seed = 17;
  config.initial_servers = 2;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(5);
  return config;
}

core::Plan plan_with(const Channel& c, std::vector<ServerId> servers, ReplicationMode mode,
                     std::uint64_t version) {
  core::Plan plan;
  PlanEntry entry;
  entry.servers = std::move(servers);
  entry.mode = mode;
  entry.version = version;
  plan.set_entry(c, entry);
  return plan;
}

TEST(Dispatcher, StartsWithPlanZero) {
  harness::Cluster cluster(config2());
  auto& d = cluster.dispatcher(cluster.server_ids()[0]);
  EXPECT_EQ(d.current_plan()->size(), 0u);
  EXPECT_EQ(d.redirecting_channels(), 0u);
  EXPECT_EQ(d.draining_channels(), 0u);
}

TEST(Dispatcher, BalancerPlanArrivesViaDirectDelivery) {
  harness::ClusterConfig config = config2();
  config.server_capacity = 60e3;
  harness::Cluster cluster(config);
  DynamothLoadBalancer::Config lb_config;
  lb_config.max_servers = 2;
  auto& lb = cluster.use_dynamoth(lb_config);
  // Overload one server so the balancer emits a plan of its own.
  for (int i = 0; i < 4; ++i) {
    cluster.add_client().subscribe("hot", [](const ps::EnvelopePtr&) {});
  }
  auto& pub = cluster.add_client();
  sim::PeriodicTask feed(cluster.sim(), millis(40), [&] { pub.publish("hot", 500); });
  feed.start();
  cluster.sim().run_for(seconds(20));
  feed.stop();
  ASSERT_FALSE(lb.events().empty());
  cluster.sim().run_for(seconds(1));
  // The balancer's latest plan reached each dispatcher through its direct send.
  for (ServerId s : cluster.server_ids()) {
    EXPECT_EQ(cluster.dispatcher(s).current_plan()->id(), lb.current_plan()->id());
    EXPECT_GE(cluster.dispatcher(s).stats().plans_applied, 1u);
  }
}

TEST(Dispatcher, StalePlanIdIgnored) {
  harness::Cluster cluster(config2());
  auto& d = cluster.dispatcher(cluster.server_ids()[0]);

  auto p2 = std::make_shared<core::Plan>(
      plan_with("c", {cluster.server_ids()[0]}, ReplicationMode::kNone, 1));
  p2->set_id(5);
  d.apply_plan(p2);
  EXPECT_EQ(d.current_plan()->id(), 5u);

  auto p1 = std::make_shared<core::Plan>(core::Plan{});
  p1->set_id(3);
  d.apply_plan(p1);
  EXPECT_EQ(d.current_plan()->id(), 5u);  // older plan rejected
}

TEST(Dispatcher, MovedChannelCreatesRedirectAndDrainState) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "mover";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  // Subscriber sits on home so drain state is relevant.
  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  EXPECT_EQ(cluster.dispatcher(home).redirecting_channels(), 1u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 1u);
}

TEST(Dispatcher, MoveWithNoSubscribersSendsImmediateDrainNotice) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "empty";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  cluster.sim().run_for(seconds(1));
  EXPECT_GE(cluster.dispatcher(home).stats().drain_notices_sent, 1u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 0u);
}

TEST(Dispatcher, SwitchSentOncePerPlanChange) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "swonce";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  auto& stale_pub = cluster.add_client();
  stale_pub.publish(c);  // prime the stale entry
  cluster.sim().run_for(seconds(1));

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  cluster.sim().run_for(millis(100));
  // Two publications arrive at the old server before corrections land; only
  // one switch must be sent. Use a second stale publisher.
  auto& stale_pub2 = cluster.add_client();
  // Both publish "simultaneously" to the old server.
  stale_pub.publish(c);
  stale_pub2.publish(c);
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(cluster.dispatcher(home).stats().switches_sent, 1u);
}

TEST(Dispatcher, ForwardTimeoutExpiresState) {
  harness::ClusterConfig config = config2();
  config.dispatcher.forward_timeout = seconds(5);
  config.dispatcher.cleanup_interval = seconds(1);
  harness::Cluster cluster(config);
  const auto servers = cluster.server_ids();
  const Channel c = "timed";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  EXPECT_EQ(cluster.dispatcher(home).redirecting_channels(), 1u);
  cluster.sim().run_for(seconds(10));
  EXPECT_EQ(cluster.dispatcher(home).redirecting_channels(), 0u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 0u);
}

TEST(Dispatcher, WrongSubscriberGetsReply) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "wrongsub";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  EXPECT_GE(cluster.dispatcher(home).stats().wrong_subscriber_replies, 1u);
  EXPECT_TRUE(sub.subscription_servers(c).contains(other));
}

TEST(Dispatcher, ForwardedMessagesAreNotReforwarded) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "noloop";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  // Subscribers on both servers during a migration window.
  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));

  auto& pub = cluster.add_client();
  pub.publish(c);  // lands on home, gets forwarded to other
  cluster.sim().run_for(seconds(3));

  // One original + one forward; the forward must not bounce back. Allow the
  // new owner to forward back to the draining old server once (drain path),
  // but nothing beyond that.
  const auto& home_stats = cluster.dispatcher(home).stats();
  const auto& other_stats = cluster.dispatcher(other).stats();
  EXPECT_EQ(home_stats.forwards_to_owner, 1u);
  EXPECT_EQ(other_stats.forwards_to_owner, 0u);
  EXPECT_EQ(other_stats.forwards_to_drain, 0u);  // echo guard: came from home
}

TEST(Dispatcher, StopDetachesObserver) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "stopped";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  cluster.dispatcher(home).stop();

  // A wrong-server publication now goes unrepaired: no reply, no forward.
  auto& pub = cluster.add_client();
  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(cluster.dispatcher(home).stats().wrong_server_replies, 0u);
  EXPECT_EQ(cluster.dispatcher(home).stats().forwards_to_owner, 0u);
  EXPECT_EQ(pub.stats().wrong_server_replies, 0u);
}

TEST(Dispatcher, PatternListenerHoldsDrainNoticeUntilPunsubscribe) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "pmv:1";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  // A wildcard listener on the old home and no plain subscribers anywhere:
  // without the pattern hold this is the immediate-drain-notice case.
  ps::RemoteConnection wild(cluster.sim(), cluster.network(),
                            cluster.network().add_node({net::NodeKind::kClient, 1e6}),
                            cluster.server(home), nullptr, nullptr);
  wild.psubscribe("pmv:*");
  cluster.sim().run_for(millis(100));

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(cluster.dispatcher(home).stats().drain_notices_sent, 0u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 1u);

  // Forwarding still live: a stale publish to home reaches the wildcard
  // listener through the redirect.
  auto& stale_pub = cluster.add_client();
  stale_pub.publish(c);
  cluster.sim().run_for(seconds(1));

  wild.punsubscribe("pmv:*");
  cluster.sim().run_for(seconds(1));
  EXPECT_GE(cluster.dispatcher(home).stats().drain_notices_sent, 1u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 0u);
}

TEST(Dispatcher, PatternConnDisconnectReleasesDrainHold) {
  harness::Cluster cluster(config2());
  const auto servers = cluster.server_ids();
  const Channel c = "pmw:1";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  auto wild = std::make_unique<ps::RemoteConnection>(
      cluster.sim(), cluster.network(),
      cluster.network().add_node({net::NodeKind::kClient, 1e6}), cluster.server(home),
      nullptr, nullptr);
  wild->psubscribe("pmw:*");
  auto& pub = cluster.add_client();
  pub.publish(c);  // interns the name on the old home
  cluster.sim().run_for(millis(500));

  cluster.install_plan(plan_with(c, {other}, ReplicationMode::kNone, 1));
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(cluster.dispatcher(home).stats().drain_notices_sent, 0u);

  // The pattern connection was the only listener holding the redirect open;
  // its disconnect must release the hold (this was the silently-ignored
  // `patterns` argument at the heart of this PR).
  wild.reset();
  cluster.sim().run_for(seconds(1));
  EXPECT_GE(cluster.dispatcher(home).stats().drain_notices_sent, 1u);
  EXPECT_EQ(cluster.dispatcher(other).draining_channels(), 0u);
}

}  // namespace
}  // namespace dynamoth::core
