// Shared control-plane machinery for load balancers.
//
// Both the Dynamoth load balancer and the consistent-hashing baseline run on
// one infrastructure node. They hold no pub/sub connection: LLA reports
// arrive through ingest_report() (sent directly by each server's LLA), and
// every new plan leaves through the PlanDelivery hook (sent directly to each
// dispatcher). Subclasses implement decide(), which inspects the aggregated
// state and may emit a new plan.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/cloud.h"
#include "fault/failure_detector.h"
#include "obs/audit.h"
#include "core/consistent_hash.h"
#include "core/control.h"
#include "core/plan.h"
#include "core/registry.h"
#include "sim/simulator.h"

namespace dynamoth::core {

enum class RebalanceKind {
  kChannelLevel,  // replication decision changed (micro)
  kHighLoad,      // Algorithm 2 (macro)
  kLowLoad,       // scale-down
  kHashing,       // baseline: ring grew
  kEmergency,     // failure detector fired; out-of-round repair
};

[[nodiscard]] const char* to_string(RebalanceKind kind);

struct RebalanceEvent {
  SimTime time = 0;
  RebalanceKind kind = RebalanceKind::kHighLoad;
  std::uint64_t plan_id = 0;
  std::size_t active_servers = 0;
};

class BalancerBase {
 public:
  struct BaseConfig {
    SimTime tick_interval = seconds(1);
    /// Reports averaged over this many windows when computing load ratios.
    std::size_t lr_window = 3;

    /// Reports older than this are purged before each decision round, so a
    /// silent (dead or partitioned) server's last-window numbers stop
    /// feeding est_lr / servers_by_load. 0 disables the purge. Keep this
    /// above the failure detector's timeout: the emergency rebalance wants
    /// the dead server's final report to know which channels it owned.
    SimTime report_max_age = seconds(10);

    /// Enables the heartbeat failure detector: LLA reports double as
    /// liveness beacons, and a server silent past the detector's threshold
    /// triggers handle_server_failure() (emergency rebalance in the
    /// Dynamoth LB; plain detach by default).
    bool detect_failures = false;
    fault::FailureDetector::Config detector;
  };

  /// One failure-detector transition, for tests and experiment timelines.
  struct LivenessEvent {
    enum class Kind { kSuspected, kRejoined };
    SimTime time = 0;
    ServerId server = kInvalidServer;
    Kind kind = Kind::kSuspected;
    SimTime silence = 0;  // observed silence at the transition
  };

  BalancerBase(sim::Simulator& sim, ServerRegistry& registry,
               std::shared_ptr<const ConsistentHashRing> base_ring, NodeId node,
               Cloud* cloud, BaseConfig config);
  virtual ~BalancerBase();

  BalancerBase(const BalancerBase&) = delete;
  BalancerBase& operator=(const BalancerBase&) = delete;

  /// Starts the decision loop. Every already-registered server is attached.
  void start();
  void stop();

  /// Attaches a pub/sub server: accepts its LLA reports and includes it in
  /// future plans.
  void attach_server(ServerId server);
  /// Detaches (drops its reports; server no longer a placement target).
  void detach_server(ServerId server);

  [[nodiscard]] const PlanPtr& current_plan() const { return plan_; }
  [[nodiscard]] const std::vector<RebalanceEvent>& events() const { return events_; }
  /// Failure-detector transitions observed so far (suspicions, rejoins).
  [[nodiscard]] const std::vector<LivenessEvent>& liveness_events() const {
    return liveness_events_;
  }
  /// Audit trail of every published plan: trigger thresholds, channel moves,
  /// hysteresis state. Queryable from tests, dumpable as a timeline.
  [[nodiscard]] const obs::RebalanceAuditLog& audit() const { return audit_; }
  [[nodiscard]] std::size_t active_server_count() const { return servers_.size(); }
  [[nodiscard]] std::vector<ServerId> active_servers() const;

  /// Observer invoked with every freshly published plan (after dispatch).
  /// Used by the eager-propagation ablation and by experiment probes.
  using PlanListener = std::function<void(const PlanPtr&, RebalanceKind)>;
  void set_plan_listener(PlanListener listener) { plan_listener_ = std::move(listener); }

  /// Direct plan transport to a server's dispatcher (paper IV-A1: "the LB
  /// sends it reliably to all dispatchers" — dispatchers are separate
  /// processes beside the pub/sub server, so plan delivery must not queue
  /// behind a saturated data plane). When unset, plans are recorded and
  /// reported to the listener but sent nowhere.
  using PlanDelivery = std::function<void(ServerId, const PlanPtr&)>;
  void set_plan_delivery(PlanDelivery delivery) { plan_delivery_ = std::move(delivery); }

  /// Feeds one LLA report into the balancer's state (the direct monitoring
  /// path). A report whose window_end is not newer than the newest one held
  /// for its server is ignored, so a report overtaken in transit neither
  /// skews the smoothing nor refreshes the failure detector.
  void ingest_report(const LoadReport& report);

  /// Smoothed load ratio of `server` (0 when unknown).
  [[nodiscard]] double load_ratio(ServerId server) const;
  /// Average smoothed load ratio across active servers.
  [[nodiscard]] double average_load_ratio() const;
  /// Max smoothed load ratio across active servers (and who holds it).
  [[nodiscard]] std::pair<ServerId, double> max_load_ratio() const;

 protected:
  struct ServerState {
    std::deque<LoadReport> reports;  // most recent last, bounded by lr_window
    double capacity = 0;             // T_i from reports
    bool retiring = false;           // excluded from placement targets
  };

  /// Periodic decision hook.
  virtual void decide() = 0;

  /// Invoked (from the tick, before decide()) for each server the failure
  /// detector newly suspects. The default just detaches it; the Dynamoth LB
  /// overrides this with an emergency rebalance. Only called when
  /// `detect_failures` is on.
  virtual void handle_server_failure(ServerId server);

  [[nodiscard]] fault::FailureDetector& detector() { return detector_; }

  /// Stamps, freezes, broadcasts and records a new plan. `record` carries the
  /// decision context (triggers, channel moves) assembled by the subclass;
  /// time/plan_id/kind/active_servers are stamped here.
  void publish_plan(Plan plan, RebalanceKind kind, obs::RebalanceRecord record = {});

  /// Records a decision round that did NOT emit a plan but still changed
  /// cloud state (e.g. spawn-only rounds waiting for capacity).
  void record_audit_only(RebalanceKind kind, obs::RebalanceRecord record);

  [[nodiscard]] const std::map<ServerId, ServerState>& servers() const { return servers_; }
  [[nodiscard]] std::map<ServerId, ServerState>& servers_mut() { return servers_; }
  [[nodiscard]] const LoadReport* latest_report(ServerId server) const;

  /// Measured per-channel outgoing byte rate on a server (bytes/sec),
  /// averaged over the report window.
  [[nodiscard]] std::map<Channel, double> channel_out_rates(ServerId server) const;

  sim::Simulator& sim_;
  ServerRegistry& registry_;
  std::shared_ptr<const ConsistentHashRing> base_ring_;
  NodeId node_;
  Cloud* cloud_;  // may be null (fixed fleet)
  BaseConfig base_config_;
  SimTime last_plan_time_ = 0;
  std::uint64_t next_plan_id_ = 1;

 private:
  /// One decision round: purge stale reports, run the failure detector,
  /// then the subclass's decide().
  void tick();
  void purge_stale_reports();
  void check_liveness();

  PlanPtr plan_;
  std::map<ServerId, ServerState> servers_;
  std::vector<RebalanceEvent> events_;
  fault::FailureDetector detector_;
  std::vector<LivenessEvent> liveness_events_;
  obs::RebalanceAuditLog audit_;
  sim::PeriodicTask ticker_;
  PlanListener plan_listener_;
  PlanDelivery plan_delivery_;
  bool started_ = false;
};

}  // namespace dynamoth::core
