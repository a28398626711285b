// Unit tests for the Dynamoth client library: local plans, lazy entry
// adoption, dedup, publish fan-out per replication mode, entry expiry,
// reconnection after drops.
#include "core/client.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
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

// Every Stats field is summed, each into itself: field i holds i+1 on one
// side and 100(i+1) on the other, so a skipped or crossed field shows up.
TEST(Client, StatsSumEveryField) {
  using Stats = DynamothClient::Stats;
  static_assert(std::is_trivially_copyable_v<Stats>);
  constexpr std::size_t kFields = sizeof(Stats) / sizeof(std::uint64_t);
  Stats a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const Stats b{100,  200,  300,  400,  500,  600,  700,  800,
                900, 1000, 1100, 1200, 1300, 1400, 1500, 1600};
  a += b;
  std::array<std::uint64_t, kFields> got{};
  std::memcpy(got.data(), &a, sizeof a);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(got[i], 101 * (i + 1)) << "field " << i;
  }
  EXPECT_EQ(a.published, 101u);
  EXPECT_EQ(a.patterns_expanded, 1616u);
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
  auto& sub = cluster.add_client();
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
  auto& sub = cluster.add_client();
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

/// Records, in arrival order, the data channels a server subscribes one
/// client node to.
class SubscribeRecorder : public ps::LocalObserver {
 public:
  explicit SubscribeRecorder(NodeId node) : node_(node) {}
  void on_publish(const ps::EnvelopePtr&, std::size_t, std::uint32_t) override {}
  void on_subscribe(ps::ConnId, const Channel& channel, NodeId client_node) override {
    if (client_node == node_ && !is_control_channel(channel)) channels.push_back(channel);
  }
  void on_unsubscribe(ps::ConnId, const Channel&, NodeId) override {}
  void on_disconnect(ps::ConnId, const std::vector<Channel>&, const std::vector<std::string>&,
                     ps::CloseReason) override {}

  std::vector<Channel> channels;

 private:
  NodeId node_;
};

// The client keys its channel states by interned id, but sweep() and
// on_closed() must keep walking them in channel-name order: each walk
// schedules events (and may draw from the RNG) per channel, so the order is
// part of the simulated behaviour. The names are interned b, a, c and
// subscribed b, c, a, so neither id nor subscribe order coincides with name
// order.
TEST(Client, SweepAndReconnectFollowChannelNameOrder) {
  const std::vector<Channel> by_name = {"cno:a", "cno:b", "cno:c"};
  intern_channel("cno:b");
  intern_channel("cno:a");
  intern_channel("cno:c");
  ASSERT_LT(ChannelTable::instance().find("cno:b"), ChannelTable::instance().find("cno:a"));

  harness::ClusterConfig config = fixture_config(1);
  // Tiny buffers: a flood on one channel makes the server drop the client.
  config.pubsub.conn_drain_bytes_per_sec = 2000;
  config.pubsub.conn_output_buffer_limit = 2000;
  harness::Cluster cluster(config);
  core::DynamothClient::Config cc;
  cc.reconnect_delay = millis(200);
  cc.resubscribe_keepalive = true;
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  for (const char* c : {"cno:b", "cno:c", "cno:a"}) {
    sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  }
  cluster.sim().run_for(seconds(1));
  const ServerId s = cluster.server_ids()[0];

  // Reconnect: the server closes the connection (output-buffer overflow) and
  // the client re-places every subscription it held there.
  SubscribeRecorder after_drop(sub.node());
  cluster.server(s).add_observer(&after_drop);
  for (int i = 0; i < 200; ++i) pub.publish("cno:b", 400);
  cluster.sim().run_for(seconds(5));
  cluster.server(s).remove_observer(&after_drop);
  ASSERT_GE(sub.stats().connection_drops, 1u);
  ASSERT_FALSE(after_drop.channels.empty());
  ASSERT_EQ(after_drop.channels.size() % by_name.size(), 0u);
  for (std::size_t i = 0; i < after_drop.channels.size(); ++i) {
    EXPECT_EQ(after_drop.channels[i], by_name[i % by_name.size()]) << "subscribe #" << i;
  }

  // Sweep: the server crashes silently and comes back empty; the sweep's
  // keepalive finds the dead stub, reconnects and re-subscribes.
  cluster.crash_server(s);
  cluster.restart_server(s);
  SubscribeRecorder after_restart(sub.node());
  cluster.server(s).add_observer(&after_restart);
  cluster.sim().run_for(seconds(6));  // > one sweep interval
  cluster.server(s).remove_observer(&after_restart);
  EXPECT_EQ(after_restart.channels, by_name);
}

// Channel states live in a block pool: a handler that subscribes to many new
// channels mid-delivery must not move the state whose handler is running.
// The handler reads its own captures after every subscribe, so a relocated
// state shows up as a use-after-free under AddressSanitizer.
TEST(Client, HandlerMaySubscribeDuringDelivery) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  constexpr int kNew = 100;
  int added = 0;
  int got = 0;
  const std::string prefix = "hsd:new:";
  sub.subscribe("hsd:trigger", [&sub, &added, &got, prefix](const ps::EnvelopePtr&) {
    if (added > 0) return;
    for (int i = 0; i < kNew; ++i) {
      sub.subscribe(prefix + std::to_string(i), [&got](const ps::EnvelopePtr&) { ++got; });
      ++added;
    }
  });
  cluster.sim().run_for(seconds(1));
  pub.publish("hsd:trigger");
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(added, kNew);
  EXPECT_TRUE(sub.subscribed("hsd:trigger"));
  for (int i = 0; i < kNew; ++i) {
    ASSERT_TRUE(sub.subscribed(prefix + std::to_string(i))) << i;
    pub.publish(prefix + std::to_string(i));
  }
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, kNew);
  EXPECT_EQ(sub.plan_size(), kNew + 1u);
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
