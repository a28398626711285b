// Local Load Analyzer (paper III-A).
//
// One LLA runs colocated with each pub/sub server. It observes every
// subscription, unsubscription and publication on the local server (the
// paper's LLA registers as an observer of every channel; colocation makes
// this free of network cost) and accumulates, per measurement window:
// publications, deliveries, bytes in/out, current subscriber count and the
// set of distinct publishers — per channel. Each window it sends an
// aggregate LoadReport straight to the load balancer node (paper Figure 1);
// the report never passes through a pub/sub server. It also carries the
// NIC-measured outgoing bandwidth M_i and the advertised maximum T_i.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/channel_table.h"
#include "common/types.h"
#include "core/control.h"
#include "core/registry.h"
#include "net/network.h"
#include "pubsub/pattern.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace dynamoth::core {

class LocalLoadAnalyzer final : public ps::LocalObserver {
 public:
  struct Config {
    SimTime report_interval = seconds(1);  // the paper's time unit t
    double advertised_capacity = 1.5e6;    // T_i, bytes/sec
  };

  LocalLoadAnalyzer(sim::Simulator& sim, net::Network& network, ps::PubSubServer& server,
                    Config config);
  ~LocalLoadAnalyzer() override;

  LocalLoadAnalyzer(const LocalLoadAnalyzer&) = delete;
  LocalLoadAnalyzer& operator=(const LocalLoadAnalyzer&) = delete;

  /// Starts observing and reporting.
  void start();
  void stop();

  /// Routes reports directly to the load balancer node over the network
  /// (paper Figure 1: the LLA talks to the LB itself, not through the local
  /// pub/sub server — monitoring must not starve behind a saturated data
  /// plane). Without a target, reports are computed but sent nowhere.
  using ReportSink = std::function<void(const LoadReport&)>;
  void set_report_target(NodeId balancer_node, ReportSink sink);

  [[nodiscard]] double advertised_capacity() const { return config_.advertised_capacity; }
  /// Load ratio over the last completed window (for tests/figures).
  [[nodiscard]] double last_load_ratio() const { return last_load_ratio_; }

  // ---- LocalObserver ----
  void on_publish(const ps::EnvelopePtr& env, std::size_t subscriber_count,
                  std::uint32_t publisher_weight) override;
  void on_subscribe(ps::ConnId conn, const Channel& channel, NodeId client_node) override;
  void on_unsubscribe(ps::ConnId conn, const Channel& channel, NodeId client_node) override;
  void on_psubscribe(ps::ConnId conn, const std::string& pattern, NodeId client_node) override;
  void on_punsubscribe(ps::ConnId conn, const std::string& pattern,
                       NodeId client_node) override;
  void on_disconnect(ps::ConnId conn, const std::vector<Channel>& channels,
                     const std::vector<std::string>& patterns, ps::CloseReason reason) override;
  void on_weight_update(ps::ConnId conn, const std::vector<Channel>& channels,
                        NodeId client_node, std::uint32_t old_weight,
                        std::uint32_t new_weight) override;

 private:
  struct Accum {
    ChannelStats stats;
    /// Distinct publishers within the window, kept sorted (small per
    /// channel). A vector instead of std::set so the window rollover can
    /// clear it while keeping its capacity — entries persist across windows
    /// and on_publish stays allocation-free in steady state.
    std::vector<ClientId> publishers;
    /// Sum of publisher weights over the distinct ids above: the number of
    /// *modeled* publishers (a weight-N cohort connection is N of them).
    /// Equals publishers.size() when nothing is weighted.
    std::uint64_t publisher_weight = 0;

    /// An entry only exists after at least one publication, so a zeroed
    /// stats block marks a carried-over entry with no traffic this window.
    [[nodiscard]] bool active() const { return stats.publications > 0; }
    void reset_window() {
      stats = ChannelStats{};
      publishers.clear();  // keeps capacity
      publisher_weight = 0;
    }
  };

  void emit_report();

  sim::Simulator& sim_;
  net::Network& network_;
  ps::PubSubServer& server_;
  Config config_;

  // All per-channel state is indexed directly by the dense interned id —
  // on_publish runs once per local publication and is now a vector index,
  // not a hash probe. emit_report converts back to names into the (ordered)
  // LoadReport, so reports stay deterministic regardless of index order.
  std::vector<Accum> window_;                       // by ChannelId; being accumulated
  std::vector<std::uint32_t> subscriber_counts_;    // by ChannelId; current, persists
  /// Per-connection client-kind cache, indexed by dense ConnId:
  /// 0 = untracked, 1 = infrastructure, 2 = client.
  std::vector<std::uint8_t> conn_kind_;
  /// Per-connection multiplicity cache, indexed by dense ConnId; entries
  /// past the end (or never updated) are weight 1. Kept by the LLA itself —
  /// the server resets a connection's weight before on_disconnect fires, so
  /// the analyzer must remember what each subscription was worth.
  std::vector<std::uint32_t> conn_weight_;

  /// Cached weight for `conn` (1 when never updated).
  [[nodiscard]] std::uint32_t weight_of(ps::ConnId conn) const {
    return conn < conn_weight_.size() && conn_weight_[conn] != 0 ? conn_weight_[conn] : 1;
  }
  /// Live client pattern subscriptions on the local server, one entry per
  /// (connection, pattern). Compiled once at PSUBSCRIBE; emit_report matches
  /// each reported channel against these so pattern listeners are attributed
  /// to the channels they receive (ChannelStats::pattern_subscribers). Empty
  /// in pattern-free runs — the report path then pays one empty() branch.
  struct PatternSub {
    ps::ConnId conn = ps::kInvalidConn;
    ps::CompiledPattern compiled;
  };
  std::vector<PatternSub> pattern_subs_;

  std::uint64_t window_start_bytes_ = 0;
  SimTime window_start_cpu_ = 0;
  SimTime window_start_time_ = 0;
  double last_load_ratio_ = 0;

  NodeId balancer_node_ = kInvalidNode;
  ReportSink sink_;
  sim::PeriodicTask reporter_;
  bool started_ = false;
};

}  // namespace dynamoth::core
