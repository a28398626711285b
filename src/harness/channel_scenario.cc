#include "harness/channel_scenario.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "harness/fault_adapter.h"
#include "pubsub/remote_connection.h"
#include "reliability/replay_service.h"
#include "sim/simulator.h"

namespace dynamoth::harness {
namespace {

// Shape every caller shares (see ChannelScenario).
constexpr std::size_t kInitialServers = 4;
constexpr SimTime kBasePublishInterval = millis(100);  // per channel, off-spike
constexpr std::size_t kPayloadBytes = 200;
constexpr SimTime kSettle = seconds(2);  // subscriptions placed before traffic
constexpr SimTime kWindow = seconds(1);  // metrics window

struct SubscriberState {
  core::DynamothClient* client = nullptr;
  std::unique_ptr<rel::ReliableSubscriber> reliable;  // iff reliability
  // Distinct channel sequences seen, per channel (one publisher per channel,
  // so channel_seq alone identifies a publication).
  std::map<Channel, std::set<std::uint64_t>> seen;
  std::uint64_t handled = 0;  // raw handler invocations, dups included
};
using Subscribers = std::vector<std::unique_ptr<SubscriberState>>;

core::DynamothClient::MessageHandler recorder(SubscriberState* sub,
                                              const sim::Simulator* sim,
                                              metrics::Histogram* latency) {
  return [sub, sim, latency](const ps::EnvelopePtr& env) {
    ++sub->handled;
    sub->seen[env->channel].insert(env->channel_seq);
    latency->record(sim->now() - env->publish_time);
  };
}

/// One publisher's self-rescheduling publish loop. A PeriodicTask has a
/// fixed interval; a spike needs the interval re-derived from the spike
/// schedule at every firing, so the loop reschedules itself.
struct PublishLoop {
  sim::Simulator* sim = nullptr;
  core::DynamothClient* client = nullptr;
  Channel channel;
  std::size_t index = 0;
  SimTime traffic_start = 0;
  const FlashCrowdSchedule* spikes = nullptr;
  bool running = false;

  void fire() {
    if (!running) return;
    client->publish(channel, kPayloadBytes);
    schedule_next();
  }

  void schedule_next() {
    const double factor = spikes->factor_at(index, sim->now() - traffic_start);
    auto interval =
        static_cast<SimTime>(static_cast<double>(kBasePublishInterval) / factor);
    // Floor relative to the base rate: a runaway factor cannot collapse the
    // interval to zero and wedge the event loop.
    interval = std::max<SimTime>(interval, kBasePublishInterval / 200);
    sim->schedule_after(interval, [this] { fire(); });
  }
};

std::uint64_t delivered_unique(const Subscribers& subs) {
  std::uint64_t total = 0;
  for (const auto& sub : subs) {
    for (const auto& [_, seqs] : sub->seen) total += seqs.size();
  }
  return total;
}

std::uint64_t handled_total(const Subscribers& subs) {
  std::uint64_t total = 0;
  for (const auto& sub : subs) total += sub->handled;
  return total;
}

}  // namespace

// ---- FlashCrowdSchedule ----

FlashCrowdSchedule& FlashCrowdSchedule::spike(SimTime at, std::size_t channel,
                                              double factor, SimTime ramp, SimTime hold,
                                              SimTime decay, std::size_t join) {
  SpikeEvent e;
  e.at = at;
  e.channel = channel;
  e.publish_factor = factor;
  e.ramp = ramp;
  e.hold = hold;
  e.decay = decay;
  e.join_subscribers = join;
  events.push_back(e);
  return *this;
}

double FlashCrowdSchedule::factor_at(std::size_t channel, SimTime t) const {
  double factor = 1.0;
  for (const SpikeEvent& e : events) {
    if (e.channel != channel) continue;
    const SimTime rel = t - e.at;
    if (rel < 0 || rel >= e.ramp + e.hold + e.decay) continue;
    double f;
    if (rel < e.ramp) {
      f = e.ramp > 0 ? 1.0 + (e.publish_factor - 1.0) * static_cast<double>(rel) /
                                 static_cast<double>(e.ramp)
                     : e.publish_factor;
    } else if (rel < e.ramp + e.hold) {
      f = e.publish_factor;
    } else {
      const SimTime into = rel - e.ramp - e.hold;
      f = e.decay > 0 ? e.publish_factor - (e.publish_factor - 1.0) *
                                               static_cast<double>(into) /
                                               static_cast<double>(e.decay)
                      : 1.0;
    }
    factor = std::max(factor, f);
  }
  return factor;
}

void FlashCrowdSchedule::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const SpikeEvent& a, const SpikeEvent& b) { return a.at < b.at; });
}

FlashCrowdSchedule FlashCrowdSchedule::random(std::uint64_t seed,
                                              const RandomParams& params,
                                              std::size_t channels) {
  FlashCrowdSchedule schedule;
  if (channels == 0) return schedule;
  Rng rng(seed);
  for (std::size_t i = 0; i < params.spikes; ++i) {
    SpikeEvent e;
    e.at = static_cast<SimTime>(rng.uniform(0, static_cast<double>(params.horizon)));
    e.channel = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels) - 1));
    e.publish_factor = rng.uniform(params.min_factor, params.max_factor);
    e.ramp = rng.uniform_int(params.min_ramp, params.max_ramp);
    e.hold = rng.uniform_int(params.min_hold, params.max_hold);
    e.decay = rng.uniform_int(params.min_ramp, params.max_hold);
    e.join_subscribers = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(params.max_join)));
    schedule.events.push_back(e);
  }
  schedule.sort();
  return schedule;
}

// ---- presets ----

ChannelScenario failover_scenario() {
  ChannelScenario s;
  s.channels = 6;
  s.explicit_subscribers = 3;
  s.max_servers = kInitialServers;
  s.t_wait = seconds(15);
  // Replication decisions would entangle loss accounting with dedup paths;
  // the failover figures study crash recovery, not replication.
  s.enable_replication = false;
  s.duration = seconds(60);
  s.drain = seconds(25);
  return s;
}

ChannelScenario flashcrowd_scenario() {
  ChannelScenario s;
  s.channels = 8;
  s.explicit_subscribers = 2;
  s.pattern_subscribers = 2;
  s.max_servers = 6;
  s.t_wait = seconds(5);  // short rounds: spikes outpace 15s
  s.enable_replication = true;
  s.duration = seconds(60);
  s.drain = seconds(20);
  // Fixed WAN latency makes the wildcard and explicit clients timing-
  // identical, so the equivalence gate measures pattern routing, not
  // per-client King-latency jitter at reconfiguration edges (under churn,
  // clients with different RTTs re-place subscriptions at different
  // instants and their received sets diverge by a handful of messages in
  // both directions — explicit clients included).
  s.cluster.fixed_latency = true;
  return s;
}

// ---- runner ----

ChannelScenarioResult run_channel_scenario(const ChannelScenario& config) {
  ClusterConfig cluster_config = config.cluster;
  cluster_config.seed = config.seed;
  cluster_config.initial_servers = kInitialServers;
  Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();
  Rng rng = cluster.fork_rng("scenario");

  core::DynamothLoadBalancer::Config lb_config;
  lb_config.t_wait = config.t_wait;
  lb_config.base.detect_failures = true;
  lb_config.enable_replication = config.enable_replication;
  // Algorithm 1 thresholds, scaled down to this harness's client counts
  // (the paper's defaults assume thousands of real subscribers). With one
  // publisher per channel and a handful of subscribers, a ~50x spike takes
  // the hot channel to ~500 pubs/s against ~10 listeners — past these.
  lb_config.all_subs_threshold = 30;      // publications per subscriber /s
  lb_config.publication_threshold = 150;  // min publications/s
  lb_config.all_pubs_threshold = 90;      // subscribers per publication /s
  lb_config.subscriber_threshold = 250;   // min subscribers
  lb_config.max_servers = config.max_servers;
  lb_config.placement = config.placement;
  auto& lb = cluster.use_dynamoth(lb_config);

  ChannelScenarioResult result;  // declared before clients: handlers record into it

  std::vector<Channel> channels;
  for (std::size_t i = 0; i < config.channels; ++i) {
    channels.push_back("fc:" + std::to_string(i));
  }

  auto client_config = [](bool publisher) {
    core::DynamothClient::Config cc;
    cc.sweep_interval = seconds(1);
    cc.reconnect_delay = millis(200);
    cc.entry_timeout = seconds(600);  // outages must not expire entries
    cc.resubscribe_keepalive = true;  // zombie subscriptions get reset
    if (publisher) {
      cc.max_pending_publishes = 4096;
      // Retransmit the unacknowledged tail whenever a channel is re-homed;
      // the window must cover fault onset -> detection -> plan absorption.
      cc.republish_window = seconds(15);
    }
    return cc;
  };
  auto new_subscriber = [&] {
    auto sub = std::make_unique<SubscriberState>();
    sub->client = &cluster.add_client(client_config(false));
    return sub;
  };
  auto add_infra_node = [&] {
    net::NodeConfig infra;
    infra.kind = net::NodeKind::kInfrastructure;
    infra.egress_bytes_per_sec = 10e6;
    return cluster.network().add_node(infra);
  };

  // Wildcard listeners covering the whole family.
  Subscribers pattern_subs;
  for (std::size_t i = 0; i < config.pattern_subscribers; ++i) {
    auto sub = new_subscriber();
    sub->client->psubscribe("fc:*", recorder(sub.get(), &sim, &result.delivery_us));
    pattern_subs.push_back(std::move(sub));
  }

  // The reference arm: the same coverage, spelled out channel by channel.
  Subscribers explicit_subs;
  rel::ReliableSubscriber::Config rel_config;
  rel_config.retry_interval = seconds(2);
  rel_config.max_retries = 100;  // outlive multi-second outages
  for (std::size_t i = 0; i < config.explicit_subscribers; ++i) {
    auto sub = new_subscriber();
    if (config.reliability) {
      sub->reliable = std::make_unique<rel::ReliableSubscriber>(sim, *sub->client, rel_config);
    }
    for (const Channel& c : channels) {
      auto handler = recorder(sub.get(), &sim, &result.delivery_us);
      if (sub->reliable) {
        sub->reliable->subscribe(c, std::move(handler));
      } else {
        sub->client->subscribe(c, std::move(handler));
      }
    }
    explicit_subs.push_back(std::move(sub));
  }

  std::vector<core::DynamothClient*> publishers;
  for (std::size_t i = 0; i < config.channels; ++i) {
    publishers.push_back(&cluster.add_client(client_config(true)));
  }

  // Replay service on its own infrastructure node.
  std::unique_ptr<core::DynamothClient> svc_client;
  std::unique_ptr<rel::ReplayService> service;
  if (config.reliability) {
    svc_client = std::make_unique<core::DynamothClient>(
        sim, cluster.network(), cluster.registry(), cluster.base_ring(), add_infra_node(),
        910'000, client_config(false), rng.fork("svc"));
    rel::ReplayService::Config svc_config;
    svc_config.history_per_channel = 16384;
    service = std::make_unique<rel::ReplayService>(sim, *svc_client, svc_config);
    service->start();
    for (const Channel& c : channels) service->cover(c);
  }

  // Spike joiners (created mid-run) and the plan they absorb on arrival.
  Subscribers crowd_subs;
  core::PlanPtr latest_plan;

  // ---- eager plan propagation ----
  lb.set_plan_listener([&](const core::PlanPtr& plan, core::RebalanceKind) {
    latest_plan = plan;
    for (const auto& [channel, entry] : plan->entries()) {
      for (const Subscribers* arm : {&pattern_subs, &explicit_subs, &crowd_subs}) {
        for (const auto& sub : *arm) sub->client->absorb_entry(channel, entry);
      }
      for (auto* pub : publishers) pub->absorb_entry(channel, entry);
      if (svc_client) svc_client->absorb_entry(channel, entry);
    }
  });

  // ---- raw substrate arm ----
  // One PSUBSCRIBE pinned to the first server, no plan awareness: what the
  // substrate alone offers. Every publication the balancer homes elsewhere
  // is a silent miss.
  std::map<Channel, std::set<std::uint64_t>> raw_seen;
  std::unique_ptr<ps::RemoteConnection> raw_conn;
  if (config.pattern_subscribers > 0) {
    raw_conn = std::make_unique<ps::RemoteConnection>(
        sim, cluster.network(), add_infra_node(), cluster.server(cluster.server_ids().front()),
        [&raw_seen](const ps::EnvelopePtr& env) {
          if (env->kind != ps::MsgKind::kData) return;
          raw_seen[env->channel].insert(env->channel_seq);
        },
        [](ps::CloseReason) {});
    raw_conn->psubscribe("fc:*");
  }

  // ---- metrics ----
  obs::MetricsRegistry& reg = result.metrics;
  auto published_c = reg.counter("published");
  auto pattern_c = reg.counter("pattern_delivered");
  auto explicit_c = reg.counter("explicit_delivered");
  auto crowd_c = reg.counter("crowd_delivered");
  auto raw_c = reg.counter("raw_delivered");
  auto expanded_c = reg.counter("client.patterns_expanded");
  auto pattern_inv_c = reg.counter("client.pattern_deliveries");
  auto drops_c = reg.counter("client.connection_drops");
  auto republish_c = reg.counter("client.republishes");
  auto plans_c = reg.counter("lb.plans_generated");
  auto repl_c = reg.counter("lb.replications_started");
  auto emergency_c = reg.counter("lb.emergency_rebalances");
  auto faults_c = reg.counter("faults.applied");
  auto servers_g = reg.gauge("active_servers");
  auto factor_g = reg.gauge("spike_factor");
  obs::MetricsRegistry::Counter rel_gaps_c, rel_recovered_c, rel_gaveup_c;
  if (config.reliability) {
    rel_gaps_c = reg.counter("rel.gaps_detected");
    rel_recovered_c = reg.counter("rel.recovered");
    rel_gaveup_c = reg.counter("rel.gave_up");
  }

  // ---- faults ----
  ClusterFaultAdapter adapter(cluster);
  fault::FaultInjector injector(sim, adapter, config.faults, rng.fork("inject"));

  SimTime traffic_start = 0;

  auto refresh_metrics = [&] {
    core::DynamothClient::Stats totals;
    for (const Subscribers* arm : {&pattern_subs, &explicit_subs, &crowd_subs}) {
      for (const auto& sub : *arm) totals += sub->client->stats();
    }
    std::uint64_t published = 0;
    for (const auto* pub : publishers) {
      totals += pub->stats();
      published += pub->stats().published;
    }

    published_c.set(published);
    pattern_c.set(delivered_unique(pattern_subs));
    explicit_c.set(delivered_unique(explicit_subs));
    crowd_c.set(delivered_unique(crowd_subs));
    std::uint64_t raw = 0;
    for (const auto& [_, seqs] : raw_seen) raw += seqs.size();
    raw_c.set(raw);
    expanded_c.set(totals.patterns_expanded);
    pattern_inv_c.set(totals.pattern_deliveries);
    drops_c.set(totals.connection_drops);
    republish_c.set(totals.republishes);
    plans_c.set(lb.stats().plans_generated);
    repl_c.set(lb.stats().replications_started);
    emergency_c.set(lb.stats().emergency_rebalances);
    faults_c.set(injector.log().size());
    const auto active = static_cast<std::uint64_t>(cluster.active_servers());
    servers_g.set(static_cast<double>(active));
    result.peak_servers = std::max(result.peak_servers, active);
    double factor = 1.0;
    for (std::size_t i = 0; i < config.channels; ++i) {
      factor = std::max(factor, config.spikes.factor_at(i, sim.now() - traffic_start));
    }
    factor_g.set(factor);
    if (config.reliability) {
      rel::ReliableSubscriber::Stats rel_totals;
      for (const auto& sub : explicit_subs) rel_totals += sub->reliable->stats();
      rel_gaps_c.set(rel_totals.gaps_detected);
      rel_recovered_c.set(rel_totals.recovered);
      rel_gaveup_c.set(rel_totals.gave_up);
      result.reliability_totals = rel_totals;
    }
    result.client_totals = totals;
  };

  // ---- run ----
  sim.run_for(kSettle);
  traffic_start = sim.now();

  std::vector<std::unique_ptr<PublishLoop>> traffic;
  for (std::size_t i = 0; i < config.channels; ++i) {
    auto loop = std::make_unique<PublishLoop>();
    loop->sim = &sim;
    loop->client = publishers[i];
    loop->channel = channels[i];
    loop->index = i;
    loop->traffic_start = traffic_start;
    loop->spikes = &config.spikes;
    traffic.push_back(std::move(loop));
  }
  // Stagger starts so publishers do not all burst on the same instant.
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    sim.schedule_after(millis(3) * static_cast<SimTime>(i), [t = traffic[i].get()] {
      t->running = true;
      t->fire();
    });
  }

  // Spike joiners: fresh clients subscribing explicitly to the hot channel,
  // spread over the ramp (a crowd arrives over seconds, not at one instant).
  // Bundled behind one pointer: simulator callbacks carry 48 inline capture
  // bytes, not a closure over half the harness.
  struct JoinCtx {
    Cluster* cluster = nullptr;
    sim::Simulator* sim = nullptr;
    metrics::Histogram* latency = nullptr;
    Subscribers* crowd = nullptr;
    core::PlanPtr* latest_plan = nullptr;
    const std::vector<Channel>* channels = nullptr;
    core::DynamothClient::Config joiner_config;
  };
  const JoinCtx join_ctx{&cluster,    &sim,      &result.delivery_us,  &crowd_subs,
                         &latest_plan, &channels, client_config(false)};
  for (const SpikeEvent& e : config.spikes.events) {
    if (e.join_subscribers == 0 || e.channel >= channels.size()) continue;
    const SimTime spread =
        e.join_subscribers > 1
            ? std::max<SimTime>(e.ramp, millis(10)) / static_cast<SimTime>(e.join_subscribers)
            : 0;
    for (std::size_t j = 0; j < e.join_subscribers; ++j) {
      sim.schedule_after(e.at + spread * static_cast<SimTime>(j),
                         [ctx = &join_ctx, hot = e.channel] {
                           auto sub = std::make_unique<SubscriberState>();
                           sub->client = &ctx->cluster->add_client(ctx->joiner_config);
                           if (*ctx->latest_plan) {
                             for (const auto& [channel, entry] :
                                  (*ctx->latest_plan)->entries()) {
                               sub->client->absorb_entry(channel, entry);
                             }
                           }
                           sub->client->subscribe((*ctx->channels)[hot],
                                                  recorder(sub.get(), ctx->sim, ctx->latency));
                           ctx->crowd->push_back(std::move(sub));
                         });
    }
  }

  sim::PeriodicTask windower(sim, kWindow, [&] {
    refresh_metrics();
    reg.end_window(sim.now());
  });
  windower.start();

  const SimTime fault_delay = std::min(config.fault_delay, config.duration);
  if (fault_delay > 0) sim.run_for(fault_delay);
  injector.arm();
  sim.run_for(config.duration - fault_delay);
  for (auto& loop : traffic) loop->running = false;
  sim.run_for(config.drain);
  windower.stop();

  // ---- results ----
  refresh_metrics();
  reg.end_window(sim.now());

  for (const auto* pub : publishers) result.published += pub->stats().published;
  result.expected = result.published * config.explicit_subscribers;
  result.delivered_unique = delivered_unique(explicit_subs);
  result.lost = result.expected - result.delivered_unique;
  result.duplicates = handled_total(explicit_subs) - result.delivered_unique;
  result.crowd_delivered_unique = delivered_unique(crowd_subs);
  result.pattern_delivered_unique = delivered_unique(pattern_subs);
  result.pattern_duplicates = handled_total(pattern_subs) - result.pattern_delivered_unique;
  for (const auto& sub : pattern_subs) {
    result.patterns_expanded += sub->client->stats().patterns_expanded;
  }

  // Equivalence: a publication every explicit subscriber received was
  // deliverable, so a pattern subscriber missing it is a pattern-path bug
  // (messages lost at a crashed server drop out of the intersection and are
  // charged to neither arm).
  if (!pattern_subs.empty() && !explicit_subs.empty()) {
    std::map<Channel, std::set<std::uint64_t>> deliverable = explicit_subs.front()->seen;
    for (std::size_t i = 1; i < explicit_subs.size(); ++i) {
      for (auto& [channel, seqs] : deliverable) {
        const auto it = explicit_subs[i]->seen.find(channel);
        if (it == explicit_subs[i]->seen.end()) {
          seqs.clear();
          continue;
        }
        std::set<std::uint64_t> kept;
        std::set_intersection(seqs.begin(), seqs.end(), it->second.begin(),
                              it->second.end(), std::inserter(kept, kept.begin()));
        seqs = std::move(kept);
      }
    }
    for (const auto& sub : pattern_subs) {
      for (const auto& [channel, seqs] : deliverable) {
        const auto it = sub->seen.find(channel);
        for (const std::uint64_t seq : seqs) {
          if (it == sub->seen.end() || !it->second.contains(seq)) ++result.pattern_missing;
        }
      }
    }
  }

  if (raw_conn) {
    for (const auto& [_, seqs] : raw_seen) result.raw_received += seqs.size();
    result.raw_missed = result.published - result.raw_received;
    raw_conn->close();
  }

  result.liveness = lb.liveness_events();
  result.faults = injector.log();
  result.fault_stats = injector.stats();
  result.lb_stats = lb.stats();
  std::ostringstream audit;
  lb.audit().write_timeline(audit);
  result.audit_timeline = audit.str();

  // ---- detection & recovery ----
  result.first_fault = injector.first_fault_time();
  if (result.first_fault < 0) return result;
  for (const auto& ev : result.liveness) {
    if (ev.kind == core::BalancerBase::LivenessEvent::Kind::kSuspected &&
        ev.time >= result.first_fault) {
      result.first_suspicion = ev.time;
      break;
    }
  }
  if (result.first_suspicion >= 0) {
    result.detection_latency = result.first_suspicion - result.first_fault;
  }

  // Pre-fault delivery rate: mean over windows fully before the fault.
  double pre_sum = 0;
  std::size_t pre_n = 0;
  const double fault_s = to_seconds(result.first_fault);
  for (std::size_t row = 0; row < reg.windows(); ++row) {
    const double end_s = reg.window_value(row, "t_s");
    const double delivered_w = reg.window_value(row, "explicit_delivered");
    if (end_s <= fault_s) {
      // Skip the warm-up window where subscriptions were still placing.
      if (delivered_w > 0) {
        pre_sum += delivered_w;
        ++pre_n;
      }
      continue;
    }
    if (pre_n == 0) break;
    const double pre_rate = pre_sum / static_cast<double>(pre_n);
    result.pre_fault_rate = pre_rate;
    const SimTime anchor =
        result.first_suspicion >= 0 ? result.first_suspicion : result.first_fault;
    if (end_s >= to_seconds(anchor) && delivered_w >= 0.8 * pre_rate) {
      result.recovery_time = static_cast<SimTime>(end_s * 1e6);
      result.recovery_latency = result.recovery_time - result.first_fault;
      break;
    }
  }
  return result;
}

}  // namespace dynamoth::harness
