// Unit tests for the Dynamoth client library: local plans, lazy entry
// adoption, dedup, publish fan-out per replication mode, entry expiry,
// reconnection after drops.
#include "core/client.h"

#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

harness::ClusterConfig fixture_config(std::size_t servers = 2) {
  harness::ClusterConfig config;
  config.seed = 3;
  config.initial_servers = servers;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(5);
  return config;
}

TEST(Client, InitialEntryComesFromConsistentHashing) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  client.publish("c");
  const PlanEntry* entry = client.plan_entry("c");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 0u);
  EXPECT_EQ(entry->primary(), cluster.base_ring()->lookup("c"));
}

TEST(Client, PlanSizeTracksTouchedChannelsOnly) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  EXPECT_EQ(client.plan_size(), 0u);
  client.publish("a");
  client.subscribe("b", [](const ps::EnvelopePtr&) {});
  EXPECT_EQ(client.plan_size(), 2u);
  EXPECT_EQ(client.plan_entry("never-used"), nullptr);
}

TEST(Client, SubscribedFlagTracksState) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  EXPECT_FALSE(client.subscribed("c"));
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  EXPECT_TRUE(client.subscribed("c"));
  client.unsubscribe("c");
  EXPECT_FALSE(client.subscribed("c"));
}

TEST(Client, DedupSuppressesDuplicateIds) {
  // During a migration the subscriber keeps its old subscription for the
  // unsubscribe grace. A publisher still on the old entry then reaches it
  // twice with one envelope: the old owner delivers locally, and its
  // dispatcher forwards the same envelope to the new owner.
  harness::Cluster cluster(fixture_config(2));
  core::DynamothClient::Config cc;
  cc.unsubscribe_grace = seconds(2);
  auto& sub = cluster.add_client(cc);
  const Channel c = "dedup";
  const ServerId home = cluster.base_ring()->lookup(c);
  const auto servers = cluster.server_ids();
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  std::vector<MessageId> got;
  sub.subscribe(c, [&](const ps::EnvelopePtr& env) { got.push_back(env->id); });
  cluster.sim().run_for(seconds(1));

  core::Plan plan;
  PlanEntry entry;
  entry.servers = {other};
  entry.version = 1;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);
  cluster.add_client().publish(c);  // carries the SWITCH to the subscriber
  cluster.sim().run_for(millis(500));
  ASSERT_EQ(cluster.server(other).subscriber_count(c), 1u);
  ASSERT_EQ(cluster.server(home).subscriber_count(c), 1u);  // inside the grace
  ASSERT_EQ(sub.stats().duplicates_suppressed, 0u);

  got.clear();
  const std::uint64_t received_before = sub.stats().received;
  auto& stale = cluster.add_client();  // fresh client: entry version 0 -> home
  const ps::EnvelopePtr env = stale.publish(c);
  cluster.sim().run_for(millis(500));
  EXPECT_EQ(got, std::vector<MessageId>{env->id});
  EXPECT_EQ(sub.stats().received, received_before + 1);
  EXPECT_EQ(sub.stats().duplicates_suppressed, 1u);
}

TEST(Client, EntryExpiresAfterInactivity) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(10);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  client.publish("c");
  ASSERT_NE(client.plan_entry("c"), nullptr);
  cluster.sim().run_for(seconds(15));
  EXPECT_EQ(client.plan_entry("c"), nullptr);
  EXPECT_GE(client.stats().entries_expired, 1u);
}

TEST(Client, SubscribedEntryNeverExpires) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(30));
  EXPECT_NE(client.plan_entry("c"), nullptr);
  EXPECT_TRUE(client.subscribed("c"));
}

TEST(Client, ActiveChannelEntryIsRefreshedByTraffic) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  for (int i = 0; i < 10; ++i) {
    client.publish("c");
    cluster.sim().run_for(seconds(2));
  }
  EXPECT_NE(client.plan_entry("c"), nullptr);
}

TEST(Client, PublishStatsCountWireMessages) {
  harness::Cluster cluster(fixture_config(3));
  auto& client = cluster.add_client();
  client.publish("c");
  EXPECT_EQ(client.stats().published, 1u);
  EXPECT_EQ(client.stats().messages_sent, 1u);
}

TEST(Client, ConnectionsAreOpenedLazily) {
  harness::Cluster cluster(fixture_config(3));
  auto& client = cluster.add_client();
  const auto servers = cluster.server_ids();
  int connected = 0;
  for (ServerId s : servers) {
    if (client.connected_to(s)) ++connected;
  }
  EXPECT_EQ(connected, 0);
  client.publish("c");
  connected = 0;
  for (ServerId s : servers) {
    if (client.connected_to(s)) ++connected;
  }
  EXPECT_EQ(connected, 1);
}

TEST(Client, ShutdownClosesConnectionsAndStopsApi) {
  harness::Cluster cluster(fixture_config(1));
  auto& client = cluster.add_client();
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  const ServerId s = cluster.server_ids()[0];
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 1u);
  client.shutdown();
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 0u);
}

TEST(Client, ControlChannelsAreRejected) {
  harness::Cluster cluster(fixture_config(1));
  auto& client = cluster.add_client();
  EXPECT_DEATH(client.publish("@ctl:disp"), "CHECK");
}

TEST(Client, ResubscribesAfterServerDroppedConnection) {
  harness::ClusterConfig config = fixture_config(1);
  // Tiny buffers: overflow drops the subscriber, who must come back.
  config.pubsub.conn_drain_bytes_per_sec = 2000;
  config.pubsub.conn_output_buffer_limit = 2000;
  harness::Cluster cluster(config);
  core::DynamothClient::Config cc;
  cc.reconnect_delay = millis(200);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  int got = 0;
  sub.subscribe("c", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));

  // Overload the subscriber's connection.
  for (int i = 0; i < 200; ++i) pub.publish("c", 400);
  cluster.sim().run_for(seconds(5));
  EXPECT_GE(sub.stats().connection_drops, 1u);

  // After the storm it reconnects and receives again.
  const ServerId s = cluster.server_ids()[0];
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 1u);
  const int before = got;
  pub.publish("c");
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(got, before + 1);
}

TEST(Client, UnsubscribeGraceKeepsOldSubscriptionBriefly) {
  harness::Cluster cluster(fixture_config(2));
  core::DynamothClient::Config cc;
  cc.unsubscribe_grace = seconds(2);
  auto& sub = cluster.add_client(cc);
  const Channel c = "graceful";
  const ServerId home = cluster.base_ring()->lookup(c);
  const auto servers = cluster.server_ids();
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(cluster.server(home).subscriber_count(c), 1u);

  // Move the channel; the switch is only told to subscribers on the first
  // publication, so install + publish.
  core::Plan plan;
  PlanEntry entry;
  entry.servers = {other};
  entry.version = 1;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);
  auto& pub = cluster.add_client();
  pub.publish(c);
  cluster.sim().run_for(millis(500));

  // New subscription placed, old one still present during the grace window.
  EXPECT_EQ(cluster.server(other).subscriber_count(c), 1u);
  EXPECT_EQ(cluster.server(home).subscriber_count(c), 1u);
  cluster.sim().run_for(seconds(3));
  EXPECT_EQ(cluster.server(home).subscriber_count(c), 0u);
}

TEST(ClientPattern, PsubscribeExpandsOverExistingChannels) {
  harness::Cluster cluster(fixture_config());
  auto& other = cluster.add_client();
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  // Channels already known to the directory before the pattern registers.
  other.subscribe("cpa:1", [](const ps::EnvelopePtr&) {});
  other.subscribe("cpa:2", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));

  std::vector<Channel> got;
  sub.psubscribe("cpa:*", [&](const ps::EnvelopePtr& e) { got.push_back(e->channel); });
  cluster.sim().run_for(seconds(1));
  EXPECT_TRUE(sub.pattern_subscribed("cpa:*"));
  EXPECT_EQ(sub.pattern_channels("cpa:*"),
            (std::set<Channel>{"cpa:1", "cpa:2"}));
  EXPECT_EQ(sub.stats().patterns_expanded, 2u);

  pub.publish("cpa:1");
  pub.publish("cpa:2");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, (std::vector<Channel>{"cpa:1", "cpa:2"}));
  EXPECT_EQ(sub.stats().pattern_deliveries, 2u);
}

TEST(ClientPattern, PsubscribeExpandsIncrementallyOnNewChannels) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  sub.psubscribe("cpb:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(millis(100));
  EXPECT_TRUE(sub.pattern_channels("cpb:*").empty());

  // The first publish interns the name; the directory listener re-expands
  // the pattern and the subscription lands before the next publication.
  pub.publish("cpb:7");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(sub.pattern_channels("cpb:*"), (std::set<Channel>{"cpb:7"}));
  pub.publish("cpb:7");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
  // Control channels never expand, even though the clients interned several
  // "@ctl:" names by now.
  for (const Channel& c : sub.pattern_channels("cpb:*")) {
    EXPECT_EQ(c.rfind("@ctl:", 0), std::string::npos) << c;
  }
}

TEST(ClientPattern, PunsubscribeKeepsExplicitInterest) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int explicit_got = 0;
  int pattern_got = 0;
  sub.subscribe("cpc:1", [&](const ps::EnvelopePtr&) { ++explicit_got; });
  sub.psubscribe("cpc:*", [&](const ps::EnvelopePtr&) { ++pattern_got; });
  cluster.sim().run_for(seconds(1));

  // Overlap: one delivery invokes both handlers, counted once in received.
  pub.publish("cpc:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 1);
  EXPECT_EQ(pattern_got, 1);
  EXPECT_EQ(sub.stats().received, 1u);

  sub.punsubscribe("cpc:*");
  EXPECT_FALSE(sub.pattern_subscribed("cpc:*"));
  EXPECT_TRUE(sub.subscribed("cpc:1"));
  pub.publish("cpc:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 2);
  EXPECT_EQ(pattern_got, 1);
}

TEST(ClientPattern, UnsubscribeKeepsPatternInterest) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int explicit_got = 0;
  int pattern_got = 0;
  sub.subscribe("cpd:1", [&](const ps::EnvelopePtr&) { ++explicit_got; });
  sub.psubscribe("cpd:*", [&](const ps::EnvelopePtr&) { ++pattern_got; });
  cluster.sim().run_for(seconds(1));

  sub.unsubscribe("cpd:1");
  EXPECT_FALSE(sub.subscribed("cpd:1"));
  // The pattern still wants the channel: the subscription must survive.
  pub.publish("cpd:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 0);
  EXPECT_EQ(pattern_got, 1);

  sub.punsubscribe("cpd:*");
  pub.publish("cpd:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(pattern_got, 1);
}

TEST(ClientPattern, PatternHeldChannelNeverExpires) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  pub.publish("cpe:1");  // interns the name
  int got = 0;
  sub.psubscribe("cpe:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(12));  // well past entry_timeout, zero traffic

  pub.publish("cpe:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
}

TEST(ClientPattern, PatternFollowsInstalledPlanChange) {
  harness::Cluster cluster(fixture_config());
  const auto servers = cluster.server_ids();
  const Channel c = "cpf:1";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  pub.publish(c);  // interns the name
  sub.psubscribe("cpf:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));
  ASSERT_TRUE(sub.subscription_servers(c).contains(home));

  // Re-home the channel; the switch rides the first publication after the
  // plan change, and the pattern-held subscription must follow it.
  core::Plan plan;
  PlanEntry entry;
  entry.servers = {other};
  entry.version = 1;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);

  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] { pub.publish(c); });
  traffic.start();
  cluster.sim().run_for(seconds(5));
  traffic.stop();

  EXPECT_TRUE(sub.subscription_servers(c).contains(other));
  EXPECT_FALSE(sub.subscription_servers(c).contains(home));
  // Continuous delivery: everything published after the subscription was in
  // place arrived (first publish predates the pattern, so at most one miss).
  EXPECT_GE(got, 48);
}

TEST(ClientPattern, ShutdownClearsPatterns) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  sub.psubscribe("cpg:*", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(millis(100));
  sub.shutdown();
  EXPECT_FALSE(sub.pattern_subscribed("cpg:*"));
  // Interning a matching name after shutdown must not resurrect anything.
  auto& pub = cluster.add_client();
  pub.publish("cpg:1");
  cluster.sim().run_for(seconds(1));
}

}  // namespace
}  // namespace dynamoth::core
