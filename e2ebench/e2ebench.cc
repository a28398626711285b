// e2ebench — one end-to-end run of a benchmark workload through the public
// experiment drivers (mammoth::exp::GameExperimentRun and
// run_sharded_game_experiment), printed as one JSON object on stdout.
//
//   e2ebench --workload paper-ramp|elastic-day|cohort-sharded --seed N
//            [--traced] [--smoke]
//
// Untraced: times world set-up several times, then one timed run, and prints
// the host cost (wall, CPU, peak RSS), the simulated system's end-to-end
// numbers (response-time percentiles, capacity under the 150 ms bound,
// server-hours, publish failures) and the run's fingerprint.
//
// Traced (--traced): the same run, measured from outside the program. The
// classic driver is stepped one sample interval at a time and every layer's
// public counters are read between slices; afterwards each layer's public
// entry point is timed on inputs captured from the run (the probes), and a
// ledger estimates each layer's self time as probe cost x call count. The
// sharded driver offers no stepping hooks, so one span covers its run.
// Nothing here changes what the simulation does: the fingerprint of a traced
// run must equal the untraced one, and run.py checks that it does.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <random>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/channel_table.h"
#include "core/load_balancer.h"
#include "core/plan.h"
#include "harness/cluster.h"
#include "latency/latency_model.h"
#include "mammoth/experiments.h"
#include "mammoth/sharded_experiment.h"
#include "mammoth/world.h"
#include "net/network.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "placement/policy.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace {

using namespace dynamoth;
namespace exp = mammoth::exp;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- helpers --

double now_s() { return std::chrono::duration<double>(Clock::now().time_since_epoch()).count(); }

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Flat JSON object writer: numbers, strings and pre-rendered values.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& u64(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& str(const std::string& key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  Json& raw(const std::string& key, const std::string& rendered) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + key + "\":" + rendered;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// FNV-1a over the bit patterns of every sampled series cell.
std::uint64_t series_digest(const metrics::Series& series) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(series.rows());
  for (std::size_t r = 0; r < series.rows(); ++r) {
    for (const double v : series.row(r)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

/// Discards everything written to it; counts the bytes.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int overflow(int c) override {
    ++bytes;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

// -------------------------------------------------------------- workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  bool traced = false;
  bool smoke = false;
};

/// Set-ups timed per process; setup_s is their median.
constexpr int kSetups = 9;

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  std::size_t shards;    // 0: classic single-simulator driver
  bool flight_recorder;  // recorder on in the untraced run too (as Fig-7 runs)
};

constexpr Workload kWorkloads[] = {
    {"paper-ramp", 77, 0, false},
    {"elastic-day", 99, 0, true},
    {"cohort-sharded", 77, 2, false},
};

/// Divides every schedule time and the duration by `k` (smoke mode).
void compress(exp::GameExperimentConfig& config, SimTime k) {
  for (exp::PopulationPoint& p : config.schedule) p.at /= k;
  config.duration /= k;
}

exp::GameExperimentConfig make_config(const Workload& w, const Options& o) {
  exp::GameExperimentConfig config = exp::default_game_experiment();
  config.seed = o.seed;
  config.balancer = exp::BalancerKind::kDynamoth;
  config.sample_interval = seconds(10);
  const std::string name = w.name;
  if (name == "paper-ramp") {
    // Fig-5 Dynamoth arm: 120 -> 1200 individual players, 3 updates/s.
    config.schedule = {{seconds(0), 120}, {seconds(60), 120}, {seconds(420), 1200}};
    config.duration = seconds(480);
    config.record_metrics_windows = true;
    if (o.smoke) compress(config, 8);
  } else if (name == "elastic-day") {
    // Fig-7 daily cycle: 50 -> 800 -> 200 -> 580 players.
    config.schedule = {{seconds(0), 50},    {seconds(240), 800}, {seconds(300), 800},
                       {seconds(330), 200}, {seconds(420), 200}, {seconds(540), 580},
                       {seconds(630), 580}};
    config.duration = seconds(630);
    config.record_metrics_windows = true;
    if (o.smoke) compress(config, 8);
  } else {
    // fig_parallel shape at 2e4 modeled users in cohort mode, 120 sim-s (at
    // fig_parallel's 1e5 the scaled model never gets under the 150 ms bound).
    const std::size_t users = o.smoke ? 5'000 : 20'000;
    const SimTime duration = o.smoke ? seconds(30) : seconds(120);
    const SimTime ramp_start = duration / 8;
    config.schedule = {{seconds(0), 120}, {ramp_start, 120}, {duration - duration / 8, 1200}};
    config.duration = duration;
    config.sample_interval = seconds(1);
    exp::scale_population(config, static_cast<double>(users) / 1200.0);
  }
  return config;
}

exp::ShardOptions shard_options(const Workload& w) {
  exp::ShardOptions options;
  options.shards = w.shards;
  return options;
}

// ------------------------------------------------------------- end-to-end --

struct Fingerprint {
  std::uint64_t executed_events = 0;
  std::uint64_t rng_draws = 0;
  std::uint64_t total_updates = 0;
  std::uint64_t series_digest = 0;
};

Fingerprint fingerprint_of(const exp::GameExperimentResult& r) {
  return {r.executed_events, r.rng_draws, r.total_updates, series_digest(r.series)};
}

std::string fingerprint_json(const Fingerprint& f) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(f.series_digest));
  return Json()
      .u64("executed_events", f.executed_events)
      .u64("rng_draws", f.rng_draws)
      .u64("total_updates", f.total_updates)
      .str("series_digest", digest)
      .done();
}

/// The simulated system's end-to-end numbers (deterministic per seed).
void add_system_metrics(Json& j, const exp::GameExperimentResult& r) {
  const std::uint64_t echoes = r.rtt_us.count();
  const double fail_ratio =
      r.total_updates > echoes
          ? static_cast<double>(r.total_updates - echoes) / static_cast<double>(r.total_updates)
          : 0.0;
  j.num("rt_p50_ms", static_cast<double>(r.rtt_us.percentile(50)) / 1000.0)
      .num("rt_p90_ms", static_cast<double>(r.rtt_us.percentile(90)) / 1000.0)
      .num("rt_p95_ms", static_cast<double>(r.rtt_us.percentile(95)) / 1000.0)
      .num("rt_p99_ms", static_cast<double>(r.rtt_us.percentile(99)) / 1000.0)
      .u64("rt_samples", echoes)
      .num("max_players_ok", r.max_players_ok)
      .num("server_hours", r.server_hours)
      .num("static_fleet_hours", r.static_fleet_hours)
      .num("peak_servers", r.peak_servers)
      .u64("publications", r.total_updates)
      .u64("echoes", echoes)
      .num("publish_fail_ratio", fail_ratio)
      .num("publish_ok_ratio", 1.0 - fail_ratio)
      .u64("connection_drops", r.connection_drops);
}

/// Host-side timing of one run: set-up samples plus the timed run.
struct HostCost {
  std::vector<double> setup_s;
  double run_wall_s = 0;
  double run_cpu_s = 0;
  double finish_s = 0;
};

void add_host_metrics(Json& j, const HostCost& h, SimTime duration) {
  const double sim_s = to_seconds(duration);
  j.num("host_ms_per_sim_s", 1000.0 * h.run_wall_s / sim_s)
      .num("setup_s", median(h.setup_s))
      .u64("setup_samples", h.setup_s.size())
      .num("run_wall_s", h.run_wall_s)
      .num("run_cpu_s", h.run_cpu_s)
      .num("host_cpu_share", ratio(h.run_cpu_s, h.run_wall_s))
      .num("sim_s", sim_s)
      .num("peak_rss_mib", peak_rss_mib());
}

// ----------------------------------------------------------- layer probes --

/// Probe results land here so the compiler cannot drop the timed loops.
volatile std::uint64_t g_sink = 0;

/// Median over `reps` timings of `fn`, in seconds.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Simulator::schedule + run_until with `pending` other events queued.
double probe_ns_per_event(std::size_t pending, std::mt19937_64& rng) {
  sim::Simulator sim;
  std::uniform_int_distribution<SimTime> far(seconds(1e6), seconds(2e6));
  for (std::size_t i = 0; i < pending; ++i) sim.schedule_at(far(rng), [] {});
  constexpr int kEvents = 100'000;
  std::uniform_int_distribution<SimTime> near(0, seconds(1));
  std::vector<SimTime> offsets(kEvents);
  for (SimTime& o : offsets) o = near(rng);
  std::uint64_t fired = 0;
  const double s = time_median(5, [&] {
    const SimTime base = sim.now();
    for (const SimTime o : offsets) sim.schedule_at(base + o, [&fired] { ++fired; });
    sim.run_until(base + seconds(1));
  });
  DYN_CHECK(fired == 5u * kEvents);
  return 1e9 * s / kEvents;
}

/// Network::send over the run's WAN latency model, delivery included.
double probe_ns_per_send(const harness::ClusterConfig& cc, std::size_t bytes) {
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::KingLatencyModel>(cc.king), Rng(7));
  const NodeId server = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  std::vector<NodeId> clients;
  for (int i = 0; i < 64; ++i) clients.push_back(network.add_node({net::NodeKind::kClient, 1e9}));
  constexpr int kSends = 100'000;
  std::uint64_t got = 0;
  const double s = time_median(5, [&] {
    for (int i = 0; i < kSends; ++i) {
      network.send(server, clients[static_cast<std::size_t>(i) % clients.size()], bytes,
                   [&got] { ++got; });
    }
    sim.run();
  });
  DYN_CHECK(got == 5u * kSends);
  return 1e9 * s / kSends;
}

/// PubSubServer publish fan-out to `subs` remote subscribers of one channel
/// (one client node each, as individual players are), per delivery, over the
/// run's WAN latency model; includes each delivery's send and event.
double probe_ns_per_delivery(const harness::ClusterConfig& cc, std::size_t subs,
                             std::size_t payload) {
  subs = std::max<std::size_t>(subs, 1);
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::KingLatencyModel>(cc.king), Rng(7));
  ps::PubSubServer::Config config;
  config.conn_drain_bytes_per_sec = 1e12;
  config.infra_drain_bytes_per_sec = 1e12;
  config.conn_output_buffer_limit = std::size_t{1} << 40;
  config.max_egress_backlog = seconds(1e6);
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, config);
  std::uint64_t got = 0;
  for (std::size_t i = 0; i < subs; ++i) {
    const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
    const ps::ConnId c =
        server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
    server.handle_subscribe(c, "probe:fanout");
  }
  const ps::ConnId pub =
      server.open_connection(network.add_node({net::NodeKind::kClient, 1e9}), nullptr, nullptr);
  const int publishes = static_cast<int>(std::max<std::size_t>(200'000 / subs, 50));
  std::uint64_t seq = 0;
  const double s = time_median(5, [&] {
    for (int i = 0; i < publishes; ++i) {
      auto env = ps::make_envelope();
      env->id = MessageId{1, ++seq};
      env->kind = ps::MsgKind::kData;
      env->channel = "probe:fanout";
      env->payload_bytes = payload;
      env->publisher = 1;
      env->channel_seq = seq;
      server.handle_publish(pub, std::move(env));
      sim.run();
    }
  });
  DYN_CHECK(got == 5u * static_cast<std::uint64_t>(publishes) * subs);
  return 1e9 * s / (static_cast<double>(publishes) * static_cast<double>(subs));
}

/// Plan::resolve_view over every tile channel of the run's final plan.
double probe_ns_per_resolve(const core::Plan& plan, const core::ConsistentHashRing& ring,
                            int tiles_per_side) {
  std::vector<Channel> channels;
  std::vector<ChannelId> ids;
  for (int y = 0; y < tiles_per_side; ++y) {
    for (int x = 0; x < tiles_per_side; ++x) {
      channels.push_back(mammoth::World::tile_channel({x, y}));
      ids.push_back(intern_channel(channels.back()));
    }
  }
  constexpr int kRounds = 2'000;
  std::uint64_t sink = 0;
  const double s = time_median(5, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        sink += plan.resolve_view(ids[i], channels[i], ring).primary();
      }
    }
  });
  g_sink = sink;
  return 1e9 * s / (static_cast<double>(kRounds) * static_cast<double>(ids.size()));
}

/// Dispatcher::apply_plan replaying the run's distinct plans, in order, on a
/// fresh dispatcher.
double probe_us_per_apply_plan(const std::vector<core::PlanPtr>& plans, std::size_t servers) {
  if (plans.empty()) return 0;
  harness::ClusterConfig cc;
  cc.initial_servers = std::max<std::size_t>(servers, 1);
  cc.fixed_latency = true;
  harness::Cluster cluster(cc);
  core::Dispatcher& dispatcher = cluster.dispatcher(cluster.server_ids().front());
  // Plan ids must grow or the dispatcher ignores the plan as stale, so every
  // application gets its own copy, made before timing.
  constexpr int kReps = 5;
  const std::size_t per_rep = std::max<std::size_t>(400, plans.size());
  std::vector<core::PlanPtr> sequence;
  for (std::size_t i = 0; i < kReps * per_rep; ++i) {
    core::Plan plan = *plans[i % plans.size()];
    plan.set_id(1'000'000'000 + i);
    sequence.push_back(std::make_shared<const core::Plan>(std::move(plan)));
  }
  std::size_t next = 0;
  const double s = time_median(kReps, [&] {
    for (std::size_t i = 0; i < per_rep; ++i) dispatcher.apply_plan(sequence[next++]);
  });
  return 1e6 * s / static_cast<double>(per_rep);
}

/// One balancer round's inputs as seen from outside at a slice boundary: a
/// load report per live server and the plan in force.
struct Round {
  std::vector<core::LoadReport> reports;
  core::PlanPtr plan;
};

/// RoundOps over one captured round, for timing a placement policy alone:
/// loads come from the round's reports, spawns are refused (no cloud), and
/// apply() shifts estimated load the way the balancer's own round does.
class ProbeRoundOps final : public placement::RoundOps {
 public:
  ProbeRoundOps(const Round& round, const core::ConsistentHashRing& ring)
      : ring_(ring), plan_(*round.plan) {
    for (const core::LoadReport& r : round.reports) {
      now_ = r.window_end;
      capacity_[r.server] = r.advertised_capacity;
      double& out = est_out_[r.server];
      const double window_s = to_seconds(r.window_end - r.window_start);
      for (const auto& [channel, st] : r.channels) {
        const double rate = static_cast<double>(st.bytes_out) / window_s;
        rates_[r.server][channel] = rate;
        out += rate;
      }
    }
  }

  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] const placement::Limits& limits() const override { return limits_; }
  [[nodiscard]] const core::Plan& plan() const override { return plan_; }
  [[nodiscard]] const core::ConsistentHashRing& base_ring() const override { return ring_; }
  [[nodiscard]] const std::map<ServerId, double>& capacity() const override { return capacity_; }
  [[nodiscard]] const std::map<ServerId, double>& est_out() const override { return est_out_; }
  [[nodiscard]] double est_lr(ServerId s) const override {
    const auto cap = capacity_.find(s);
    const auto out = est_out_.find(s);
    return cap == capacity_.end() || out == est_out_.end() ? 0 : ratio(out->second, cap->second);
  }
  [[nodiscard]] double est_cpu(ServerId) const override { return 0; }
  [[nodiscard]] double pressure(ServerId s) const override { return est_lr(s) / limits_.lr_high; }
  [[nodiscard]] const std::map<Channel, double>& rates(ServerId s) const override {
    return rates_[s];
  }
  [[nodiscard]] const std::map<Channel, double>& cpu_rates(ServerId) const override {
    return no_rates_;
  }
  [[nodiscard]] std::vector<ServerId> servers_by_load(
      const std::set<ServerId>& exclude) const override {
    std::vector<ServerId> ids;
    for (const auto& [id, _] : capacity_) {
      if (!exclude.contains(id)) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(), [this](ServerId a, ServerId b) {
      return pressure(a) != pressure(b) ? pressure(a) < pressure(b) : a < b;
    });
    return ids;
  }
  [[nodiscard]] bool server_live(ServerId s) const override { return capacity_.contains(s); }
  [[nodiscard]] std::size_t roster_size() const override { return capacity_.size(); }
  [[nodiscard]] std::vector<placement::ChannelLoad> channel_loads() const override {
    std::map<Channel, double> total;
    for (const auto& [_, rates] : rates_) {
      for (const auto& [channel, rate] : rates) total[channel] += rate;
    }
    std::vector<placement::ChannelLoad> loads;
    for (const auto& [channel, rate] : total) {
      const Channel& name = *names_.insert(channel).first;
      loads.push_back({intern_channel(name), &name, rate});
    }
    return loads;
  }
  void apply(const Channel& channel, const core::PlanEntry& entry, std::string) override {
    double moved = 0;
    for (auto& [s, rates] : rates_) {
      const auto it = rates.find(channel);
      if (it == rates.end()) continue;
      moved += it->second;
      est_out_[s] -= it->second;
      rates.erase(it);
    }
    for (const ServerId s : entry.servers) {
      const double share = moved / static_cast<double>(entry.servers.size());
      est_out_[s] += share;
      rates_[s][channel] += share;
    }
    plan_.set_entry(channel, entry);
  }
  void add_trigger(std::string, ServerId, double, double) override {}
  void set_kind(core::RebalanceKind) override {}
  void mark_overloaded() override {}
  void note_migration() override {}
  bool request_spawn() override { return false; }
  void begin_drain(ServerId victim) override {
    capacity_.erase(victim);
    est_out_.erase(victim);
    rates_.erase(victim);
  }

 private:
  const core::ConsistentHashRing& ring_;
  placement::Limits limits_;
  core::Plan plan_;
  SimTime now_ = 0;
  std::map<ServerId, double> capacity_;
  std::map<ServerId, double> est_out_;
  mutable std::map<ServerId, std::map<Channel, double>> rates_;
  const std::map<Channel, double> no_rates_;
  mutable std::set<Channel> names_;  // stable storage for ChannelLoad::name
};

/// One system-level round of the configured placement policy, per captured
/// round of the run.
double probe_us_per_round(const std::vector<Round>& rounds, const core::ConsistentHashRing& ring,
                          const placement::PolicyConfig& config) {
  if (rounds.empty()) return 0;
  const std::unique_ptr<placement::PlacementPolicy> policy = placement::make_policy(config);
  std::vector<double> per_round;
  for (int rep = 0; rep < 5; ++rep) {
    double total = 0;
    for (const Round& round : rounds) {
      ProbeRoundOps ops(round, ring);
      const double t0 = now_s();
      policy->system_rebalance(ops, /*scale_down_allowed=*/true);
      total += now_s() - t0;
    }
    per_round.push_back(total / static_cast<double>(rounds.size()));
  }
  return 1e6 * median(per_round);
}

/// BalancerBase::ingest_report on load reports shaped like the run's: one
/// per live server per slice, one ChannelStats per channel it served.
double probe_us_per_ingest(const std::vector<Round>& rounds, std::size_t servers) {
  std::vector<core::LoadReport> reports;
  for (const Round& round : rounds) {
    reports.insert(reports.end(), round.reports.begin(), round.reports.end());
  }
  if (reports.empty()) return 0;
  harness::ClusterConfig cc;
  cc.initial_servers = std::max<std::size_t>(servers, 1);
  cc.fixed_latency = true;
  harness::Cluster cluster(cc);
  core::BalancerBase& balancer = cluster.use_dynamoth({});
  const std::vector<ServerId> ids = cluster.server_ids();
  for (core::LoadReport& r : reports) r.server = ids[r.server % ids.size()];
  const int cycles = std::max(1, static_cast<int>(20'000 / reports.size()));
  const double s = time_median(5, [&] {
    for (int c = 0; c < cycles; ++c) {
      for (const core::LoadReport& r : reports) balancer.ingest_report(r);
    }
  });
  return 1e6 * s / (static_cast<double>(cycles) * static_cast<double>(reports.size()));
}

// ------------------------------------------------------ classic, traced --

/// Every layer's public counters, read between slices. Monotonic counters
/// of servers that were later released keep their last-seen values.
struct Snapshot {
  double t_s = 0;
  std::uint64_t events = 0, pending = 0;
  std::uint64_t net_msgs = 0, net_bytes = 0, net_dropped = 0, coalesced = 0, infra_msgs = 0;
  double egress_backlog_ms = 0, cpu_backlog_ms = 0, cpu_busy_s = 0;
  std::uint64_t forwards = 0, switches = 0, wrong_server = 0, plans_applied = 0;
  std::uint64_t published = 0, received = 0, dups = 0, stale = 0, switches_followed = 0;
  std::uint64_t updates = 0, crossings = 0, conn_drops = 0;
  std::uint64_t cohort_events = 0, member_deliveries = 0;
  std::uint64_t lb_plans = 0, lb_migrations = 0, lb_replications = 0, lb_spawned = 0,
                lb_released = 0, control_bytes = 0;
};

struct ServerSeen {
  core::Dispatcher::Stats dispatcher;
  double cpu_busy_s = 0;
  std::uint64_t transmitted = 0;
};

class Observer {
 public:
  explicit Observer(exp::GameExperimentRun& run) : run_(run) {
    const int side = run.config().game.tiles_per_side;
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) tiles_.push_back(mammoth::World::tile_channel({x, y}));
    }
  }

  Snapshot read(SimTime slice) {
    harness::Cluster& cluster = run_.cluster();
    net::Network& network = cluster.network();
    Snapshot s;
    s.t_s = to_seconds(run_.sim().now());
    s.events = run_.sim().executed_events();
    s.pending = run_.sim().pending_events();
    for (NodeId n = 0; n < network.node_count(); ++n) {
      const net::EgressCounters& c = network.counters(n);
      s.net_msgs += c.messages_sent;
      s.net_bytes += c.bytes_sent;
      s.net_dropped += c.messages_dropped;
    }
    s.coalesced = network.coalesced_deliveries();
    s.infra_msgs = network.total_infrastructure_messages();

    Round round;
    for (const ServerId id : cluster.server_ids()) {
      ps::PubSubServer& server = cluster.server(id);
      s.egress_backlog_ms =
          std::max(s.egress_backlog_ms, to_seconds(network.egress_backlog(server.node())) * 1e3);
      s.cpu_backlog_ms = std::max(s.cpu_backlog_ms, to_seconds(server.cpu_backlog()) * 1e3);
      ServerSeen& seen = servers_[id];
      const std::uint64_t tx = network.transmitted_bytes(server.node());
      seen.dispatcher = cluster.dispatcher(id).stats();
      seen.cpu_busy_s = to_seconds(server.cpu_time_executed());
      for (const Channel& ch : tiles_) {
        const std::size_t n = server.subscriber_count(ch);
        if (n > 0) set_sizes_.push_back(static_cast<double>(n));
      }
      if (slice > 0) round.reports.push_back(report_for(id, server, tx - seen.transmitted, slice));
      seen.transmitted = tx;
    }
    for (const auto& [id, seen] : servers_) {
      s.cpu_busy_s += seen.cpu_busy_s;
      s.forwards += seen.dispatcher.forwards_to_owner + seen.dispatcher.forwards_to_drain;
      s.switches += seen.dispatcher.switches_sent;
      s.wrong_server += seen.dispatcher.wrong_server_replies;
      s.plans_applied += seen.dispatcher.plans_applied;
    }
    peak_servers_ = std::max(peak_servers_, cluster.server_ids().size());
    if (!cluster.server_ids().empty()) {
      const core::PlanPtr& plan = cluster.dispatcher(cluster.server_ids().front()).current_plan();
      if (plan && (plans_.empty() || plans_.back()->id() != plan->id())) plans_.push_back(plan);
      round.plan = plan;
    }
    if (!round.reports.empty() && round.plan) rounds_.push_back(std::move(round));

    mammoth::Game& game = run_.game();
    auto add_client = [&s](const core::DynamothClient& c) {
      const core::DynamothClient::Stats& st = c.stats();
      s.published += st.published;
      s.received += st.received;
      s.dups += st.duplicates_suppressed;
      s.stale += st.stale_drops;
      s.switches_followed += st.switches_followed;
    };
    if (game.cohort_mode()) {
      for (std::size_t i = 0; i < tiles_.size(); ++i) {
        if (cohort::Cohort* c = game.tile_cohort(i)) {
          add_client(c->client());
          s.cohort_events += c->stats().delivery_events;
          s.member_deliveries += c->stats().member_deliveries;
        }
      }
    } else {
      for (std::size_t i = 0; i < game.total_players_created(); ++i) {
        add_client(game.player(i).client());
      }
    }
    s.updates = game.total_updates_published();
    s.crossings = game.total_tile_crossings();
    s.conn_drops = game.total_connection_drops();

    if (auto* lb = dynamic_cast<core::DynamothLoadBalancer*>(cluster.balancer())) {
      const core::DynamothLoadBalancer::Stats& st = lb->stats();
      s.lb_plans = st.plans_generated;
      s.lb_migrations = st.channels_migrated;
      s.lb_replications = st.replications_started;
      s.lb_spawned = st.servers_spawned;
      s.lb_released = st.servers_released;
    }
    if (cluster.balancer_node() != kInvalidNode) {
      s.control_bytes = network.counters(cluster.balancer_node()).bytes_sent;
    }
    return s;
  }

  [[nodiscard]] const std::vector<double>& set_sizes() const { return set_sizes_; }
  [[nodiscard]] const std::vector<core::PlanPtr>& plans() const { return plans_; }
  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }
  [[nodiscard]] std::size_t peak_servers() const { return peak_servers_; }

 private:
  /// A load report shaped like the one the server's LLA sent for the slice.
  core::LoadReport report_for(ServerId id, ps::PubSubServer& server, std::uint64_t tx_bytes,
                              SimTime slice) {
    core::LoadReport r;
    r.server = id;
    r.window_end = run_.sim().now();
    r.window_start = r.window_end - slice;
    r.measured_out_bytes_per_sec = static_cast<double>(tx_bytes) / to_seconds(slice);
    r.advertised_capacity = run_.cluster().lla(id).advertised_capacity();
    // Every player of a tile publishes to all of its subscribers.
    const mammoth::PlayerConfig& player = run_.config().game.player;
    const double msg_bytes =
        static_cast<double>(player.payload_bytes + server.config().msg_overhead_bytes);
    for (const Channel& ch : tiles_) {
      const std::size_t n = server.subscriber_count(ch);
      if (n == 0) continue;
      core::ChannelStats& cs = r.channels[ch];
      cs.subscribers = static_cast<std::uint32_t>(n);
      cs.publishers = static_cast<std::uint32_t>(n);
      cs.publications = static_cast<std::uint64_t>(double(n) * player.updates_per_sec *
                                                   to_seconds(slice));
      cs.deliveries = cs.publications * n;
      cs.bytes_out = static_cast<std::uint64_t>(double(cs.deliveries) * msg_bytes);
    }
    return r;
  }

  exp::GameExperimentRun& run_;
  std::vector<Channel> tiles_;
  std::map<ServerId, ServerSeen> servers_;
  std::vector<double> set_sizes_;
  std::vector<core::PlanPtr> plans_;
  std::vector<Round> rounds_;
  std::size_t peak_servers_ = 0;
};

struct Span {
  std::string name;
  double start_s = 0, end_s = 0;
  std::string attrs;  // rendered JSON object ("" = none)
};

std::string spans_json(const std::vector<Span>& spans, const std::string& run_id) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Json j;
    j.str("run", run_id).str("name", spans[i].name).num("start_s", spans[i].start_s)
        .num("dur_s", spans[i].end_s - spans[i].start_s);
    if (!spans[i].attrs.empty()) j.raw("counters", spans[i].attrs);
    out += (i ? "," : "") + j.done();
  }
  return out + "]";
}

/// Estimated self time (seconds) of each layer the probes cover.
struct LayerSelf {
  double sim = 0, net = 0, pubsub = 0, client = 0, dispatcher = 0, lla_balancer = 0,
         placement = 0;
};

/// Self times as shares of the timed run's process CPU time `host_s`, plus
/// the unattributed remainder, so the shares sum to 1 by construction.
std::string ledger_json(const LayerSelf& self, double host_s) {
  const std::pair<const char*, double> layers[] = {
      {"sim_share", self.sim},           {"net_share", self.net},
      {"pubsub_share", self.pubsub},     {"client_share", self.client},
      {"dispatcher_share", self.dispatcher}, {"lla_balancer_share", self.lla_balancer},
      {"placement_share", self.placement},
  };
  Json j;
  double attributed = 0;
  for (const auto& [name, s] : layers) {
    attributed += ratio(s, host_s);
    j.num(name, ratio(s, host_s));
  }
  j.num("unattributed_share", 1.0 - attributed);
  return j.done();
}

/// The flight recorder's retained points, counted by "category/name". In a
/// sharded run this is the calling thread's recorder, i.e. shard 0.
std::map<std::string, std::uint64_t> control_plane_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const obs::TraceEvent& ev : obs::trace().events()) {
    ++counts[obs::trace().string_at(ev.cat) + "/" + obs::trace().string_at(ev.name)];
  }
  return counts;
}

std::string counts_json(const std::map<std::string, std::uint64_t>& counts) {
  Json j;
  for (const auto& [name, count] : counts) j.u64(name, count);
  return j.done();
}

// ----------------------------------------------------------------- runs --

/// Constructs (and destroys) the world `n` times, returning each set-up time.
std::vector<double> time_classic_setups(const Workload& w, const Options& o, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    const exp::GameExperimentConfig config = make_config(w, o);
    exp::GameExperimentRun run(config);
    out.push_back(now_s() - t0);
  }
  return out;
}

std::string run_classic(const Workload& w, const Options& o) {
  if (w.flight_recorder || o.traced) obs::trace().set_enabled(true);
  HostCost host;
  host.setup_s = time_classic_setups(w, o, kSetups - 1);
  obs::trace().clear();

  std::vector<Span> spans;
  const double t_setup = now_s();
  const exp::GameExperimentConfig config = make_config(w, o);
  exp::GameExperimentRun run(config);
  const double t_run = now_s();
  host.setup_s.push_back(t_run - t_setup);
  spans.push_back({"setup", t_setup, t_run, ""});

  std::vector<Snapshot> snaps;
  std::unique_ptr<Observer> observer;
  const double cpu0 = cpu_s();
  if (o.traced) {
    observer = std::make_unique<Observer>(run);
    snaps.push_back(observer->read(0));
    for (SimTime t = config.sample_interval; t <= config.duration; t += config.sample_interval) {
      const double a = now_s();
      run.run_until(t);
      const double b = now_s();
      snaps.push_back(observer->read(config.sample_interval));
      const Snapshot& p = snaps[snaps.size() - 2];
      const Snapshot& c = snaps.back();
      spans.push_back({"run_until", a, b,
                       Json()
                           .num("sim_t_s", c.t_s)
                           .u64("events", c.events - p.events)
                           .num("ns_per_event", ratio(1e9 * (b - a), double(c.events - p.events)))
                           .u64("net_msgs", c.net_msgs - p.net_msgs)
                           .u64("client_published", c.published - p.published)
                           .u64("dispatcher_forwards", c.forwards - p.forwards)
                           .u64("pending", c.pending)
                           .num("egress_backlog_ms", c.egress_backlog_ms)
                           .done()});
    }
    run.run_until(config.duration);
  } else {
    run.run_until(config.duration);
  }
  const double t_fin = now_s();
  host.run_cpu_s = cpu_s() - cpu0;
  host.run_wall_s = t_fin - t_run;
  const exp::GameExperimentResult result = run.finish();
  const double t_fin_end = now_s();
  host.finish_s = t_fin_end - t_fin;
  spans.push_back({"finish", t_fin, t_fin_end, ""});

  Json j;
  j.str("workload", w.name).u64("seed", o.seed).num("traced", o.traced ? 1 : 0);
  j.raw("fingerprint", fingerprint_json(fingerprint_of(result)));
  add_system_metrics(j, result);
  add_host_metrics(j, host, config.duration);
  if (!o.traced) return j.done();

  // Export the flight recorder as Fig-7 does (into a byte counter, not a file).
  CountingBuf sink;
  std::ostream os(&sink);
  const double t_exp = now_s();
  obs::write_chrome_trace(obs::trace(), os);
  const double t_exp_end = now_s();
  spans.push_back({"export", t_exp, t_exp_end, Json().u64("bytes", sink.bytes).done()});

  std::map<std::string, std::uint64_t> control_plane = control_plane_counts();
  const std::uint64_t lla_reports = control_plane["lla/report"];

  const Snapshot& last = snaps.back();
  std::uint64_t pending_peak = 0;
  double egress_peak = 0, cpu_backlog_peak = 0;
  for (const Snapshot& s : snaps) {
    pending_peak = std::max(pending_peak, s.pending);
    egress_peak = std::max(egress_peak, s.egress_backlog_ms);
    cpu_backlog_peak = std::max(cpu_backlog_peak, s.cpu_backlog_ms);
  }
  std::vector<double> sizes = observer->set_sizes();
  std::sort(sizes.begin(), sizes.end());
  const double size_median = median(sizes);
  const double size_max = sizes.empty() ? 1 : sizes.back();
  const std::size_t payload = config.game.player.payload_bytes;

  std::mt19937_64 rng(o.seed);
  const double ns_event = probe_ns_per_event(std::min<std::uint64_t>(pending_peak, 1'000'000), rng);
  const double ns_send = probe_ns_per_send(
      config.cluster, static_cast<std::size_t>(ratio(last.net_bytes, last.net_msgs)));
  const double ns_sparse =
      probe_ns_per_delivery(config.cluster, static_cast<std::size_t>(size_median), payload);
  const double ns_dense =
      probe_ns_per_delivery(config.cluster, static_cast<std::size_t>(size_max), payload);
  harness::Cluster& cluster = run.cluster();
  const core::PlanPtr final_plan =
      observer->plans().empty() ? core::make_plan_zero() : observer->plans().back();
  const double ns_resolve =
      probe_ns_per_resolve(*final_plan, *cluster.base_ring(), config.game.tiles_per_side);
  const double us_apply = probe_us_per_apply_plan(observer->plans(), observer->peak_servers());
  const double us_ingest = probe_us_per_ingest(observer->rounds(), observer->peak_servers());
  const double us_round =
      probe_us_per_round(observer->rounds(), *cluster.base_ring(), config.dynamoth.placement);

  Json m;
  m.u64("sim.events", last.events)
      .num("sim.ns_per_event", ratio(1e9 * host.run_cpu_s, double(last.events)))
      .u64("sim.pending_peak", pending_peak)
      .num("sim.probe_ns_per_event", ns_event)
      .u64("shard.epochs", 0)
      .u64("shard.boundary_events", 0)
      .num("shard.events_per_epoch", 0)
      .num("shard.idle_share", 1.0 - ratio(host.run_cpu_s, host.run_wall_s))
      .u64("net.msgs", last.net_msgs)
      .u64("net.bytes", last.net_bytes)
      .u64("net.coalesced", last.coalesced)
      .u64("net.dropped", last.net_dropped)
      .num("net.egress_backlog_peak_ms", egress_peak)
      .num("net.probe_ns_per_send", ns_send)
      .u64("pubsub.conn_drops", last.conn_drops)
      .num("pubsub.cpu_busy_sim_s", last.cpu_busy_s)
      .num("pubsub.cpu_backlog_peak_ms", cpu_backlog_peak)
      .num("pubsub.subscribers_median", size_median)
      .num("pubsub.subscribers_max", size_max)
      .num("pubsub.probe_ns_per_delivery_sparse", ns_sparse)
      .num("pubsub.probe_ns_per_delivery_dense", ns_dense)
      .u64("dispatcher.forwards", last.forwards)
      .u64("dispatcher.switches", last.switches)
      .u64("dispatcher.wrong_server", last.wrong_server)
      .u64("dispatcher.plans_applied", last.plans_applied)
      .num("dispatcher.probe_us_per_apply_plan", us_apply)
      .u64("client.published", last.published)
      .u64("client.received", last.received)
      .u64("client.dups_suppressed", last.dups)
      .u64("client.stale_drops", last.stale)
      .u64("client.switches_followed", last.switches_followed)
      .num("client.probe_ns_per_resolve", ns_resolve)
      .u64("lla.reports", lla_reports)
      .num("balancer.probe_us_per_ingest", us_ingest)
      .u64("balancer.plans", last.lb_plans)
      .u64("balancer.migrations", last.lb_migrations)
      .u64("balancer.replications", last.lb_replications)
      .u64("balancer.spawned", last.lb_spawned)
      .u64("balancer.released", last.lb_released)
      .u64("balancer.control_bytes", last.control_bytes)
      .num("placement.probe_us_per_round", us_round)
      .u64("game.updates", last.updates)
      .u64("game.tile_crossings", last.crossings)
      .u64("cohort.delivery_events", last.cohort_events)
      .u64("cohort.member_deliveries", last.member_deliveries)
      .num("cohort.members_per_event", ratio(last.member_deliveries, last.cohort_events))
      .u64("obs.trace_events", obs::trace().recorded())
      .u64("obs.trace_dropped", obs::trace().dropped())
      .num("obs.export_s", t_exp_end - t_exp)
      .num("harness.finish_s", host.finish_s);
  j.raw("layers", m.done());

  // Self-time estimates. Probes nest (a delivery includes its send, a send
  // its event), so every event is charged once, to the outermost probe that
  // covers it: server egress to the fan-out probe, other messages to the
  // send probe, the remaining events (timers, ticks) to the event probe.
  const double infra = static_cast<double>(last.infra_msgs);
  const double other_msgs = std::max(0.0, double(last.net_msgs) - infra);
  const double timer_events = std::max(0.0, double(last.events) - double(last.net_msgs));
  const double rounds = to_seconds(config.duration) / to_seconds(config.dynamoth.t_wait);
  LayerSelf self;
  self.sim = 1e-9 * ns_event * timer_events;
  self.net = 1e-9 * ns_send * other_msgs;
  self.pubsub = 1e-9 * ns_sparse * infra;
  self.client = 1e-9 * ns_resolve * double(last.published);
  self.dispatcher = 1e-6 * us_apply * double(last.plans_applied);
  self.lla_balancer = 1e-6 * us_ingest * double(lla_reports);
  self.placement = 1e-6 * us_round * rounds;
  j.raw("ledger", ledger_json(self, host.run_cpu_s));
  j.raw("control_plane", counts_json(control_plane));
  j.raw("spans", spans_json(spans, std::string(w.name) + "-" + std::to_string(o.seed)));
  return j.done();
}

std::string run_sharded(const Workload& w, const Options& o) {
  if (o.traced) obs::trace().set_enabled(true);
  // Set-up of the sharded driver: a zero-duration run builds every region's
  // world on its shard thread, runs the t = 0 events, and tears down.
  HostCost host;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    exp::GameExperimentConfig config = make_config(w, o);
    config.duration = 0;
    const exp::ShardedGameResult r = exp::run_sharded_game_experiment(config, shard_options(w));
    host.setup_s.push_back(now_s() - t0);
  }
  const double t0 = now_s();
  const double cpu0 = cpu_s();
  const exp::GameExperimentConfig config = make_config(w, o);
  const exp::ShardedGameResult r = exp::run_sharded_game_experiment(config, shard_options(w));
  const double t1 = now_s();
  host.run_cpu_s = cpu_s() - cpu0;
  host.run_wall_s = std::max(1e-9, t1 - t0 - median(host.setup_s));

  Json j;
  j.str("workload", w.name).u64("seed", o.seed).num("traced", o.traced ? 1 : 0);
  j.raw("fingerprint", fingerprint_json(fingerprint_of(r.merged)));
  add_system_metrics(j, r.merged);
  add_host_metrics(j, host, config.duration);
  if (!o.traced) return j.done();

  std::uint64_t infra_msgs = 0;
  for (const exp::GameExperimentResult& part : r.per_shard) {
    infra_msgs += part.metrics.counter_value("infra_msgs");
  }
  const double k = static_cast<double>(w.shards);
  std::mt19937_64 rng(o.seed);
  const double ns_event = probe_ns_per_event(100'000, rng);
  Json m;
  // Layers behind the sharded driver expose only the merged result and the
  // engine's statistics; counters it hides are reported as 0 (see
  // manifest.json, "observed_on").
  m.u64("sim.events", r.merged.executed_events)
      .num("sim.ns_per_event", ratio(1e9 * host.run_cpu_s, double(r.merged.executed_events)))
      .u64("sim.pending_peak", 0)
      .num("sim.probe_ns_per_event", ns_event)
      .u64("shard.epochs", r.engine.epochs)
      .u64("shard.boundary_events", r.engine.boundary_events)
      .num("shard.events_per_epoch",
           ratio(double(r.merged.executed_events), double(r.engine.epochs)))
      .num("shard.idle_share", 1.0 - ratio(host.run_cpu_s, k * (t1 - t0)))
      .u64("net.msgs", infra_msgs)
      .u64("net.bytes", 0)
      .u64("net.coalesced", 0)
      .u64("net.dropped", 0)
      .num("net.egress_backlog_peak_ms", 0)
      .num("net.probe_ns_per_send", 0)
      .u64("pubsub.conn_drops", r.merged.connection_drops)
      .num("pubsub.cpu_busy_sim_s", 0)
      .num("pubsub.cpu_backlog_peak_ms", 0)
      .num("pubsub.subscribers_median", 0)
      .num("pubsub.subscribers_max", 0)
      .num("pubsub.probe_ns_per_delivery_sparse", 0)
      .num("pubsub.probe_ns_per_delivery_dense", 0)
      .u64("dispatcher.forwards", 0)
      .u64("dispatcher.switches", 0)
      .u64("dispatcher.wrong_server", 0)
      .u64("dispatcher.plans_applied", 0)
      .num("dispatcher.probe_us_per_apply_plan", 0)
      .u64("client.published", r.merged.total_updates)
      .u64("client.received", 0)
      .u64("client.dups_suppressed", 0)
      .u64("client.stale_drops", 0)
      .u64("client.switches_followed", 0)
      .num("client.probe_ns_per_resolve", 0)
      .u64("lla.reports", 0)
      .num("balancer.probe_us_per_ingest", 0)
      .u64("balancer.plans", r.merged.events.size())
      .u64("balancer.migrations", 0)
      .u64("balancer.replications", 0)
      .u64("balancer.spawned", 0)
      .u64("balancer.released", 0)
      .u64("balancer.control_bytes", r.merged.control_bytes)
      .num("placement.probe_us_per_round", 0)
      .u64("game.updates", r.merged.total_updates)
      .u64("game.tile_crossings", 0)
      .u64("cohort.delivery_events", 0)
      .u64("cohort.member_deliveries", r.merged.delivery_latency_us.count())
      .num("cohort.members_per_event", 0)
      .u64("obs.trace_events", obs::trace().recorded())
      .u64("obs.trace_dropped", obs::trace().dropped())
      .num("obs.export_s", 0)
      .num("harness.finish_s", 0);
  j.raw("layers", m.done());
  LayerSelf self;
  self.sim = 1e-9 * ns_event * double(r.merged.executed_events);
  j.raw("ledger", ledger_json(self, host.run_cpu_s));
  j.raw("control_plane", counts_json(control_plane_counts()));
  j.raw("spans", spans_json({{"run_sharded", t0, t1,
                              Json()
                                  .u64("epochs", r.engine.epochs)
                                  .u64("boundary_events", r.engine.boundary_events)
                                  .u64("events", r.merged.executed_events)
                                  .done()}},
                            std::string(w.name) + "-" + std::to_string(o.seed)));
  return j.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload paper-ramp|elastic-day|cohort-sharded "
               "[--seed N] [--traced] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      o.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      o.seed_given = true;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (o.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return usage();
  if (!o.seed_given) o.seed = w->default_seed;
  const std::string json = w->shards > 0 ? run_sharded(*w, o) : run_classic(*w, o);
  std::printf("%s\n", json.c_str());
  return 0;
}
