// Failover figure: crash and partition scenarios, with and without the
// replay-based reliability layer.
//
// A fixed workload (6 channels, one 10 Hz publisher each, 3 subscribers on
// every channel) runs while the fault injector kills or isolates a server.
// The control plane detects the silence through the heartbeat failure
// detector and pushes an emergency plan; the figure charts the per-window
// delivery rate around the fault and reports detection latency, recovery
// latency, and permanent message loss for each arm.
//
// Outputs:
//   fig_failover.csv                    one summary row per run
//   fig_failover_<scenario>_<arm>.csv   per-window metrics (delivered, ...)
//   fig_failover_audit.txt              rebalance audit + fault timelines
//
// Exit status is non-zero when a run misses its recovery budget (detector
// timeout + two balancer ticks + propagation slack) or a reliability-on run
// loses a message permanently.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/balancer_base.h"
#include "fault/failure_detector.h"
#include "harness/channel_scenario.h"

int main(int argc, char** argv) {
  using namespace dynamoth;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  struct Scenario {
    std::string name;
    fault::FaultSchedule schedule;
  };
  std::vector<Scenario> scenarios;
  {
    // One server dies for good 20s in; only the emergency rebalance can
    // bring its channels back.
    fault::FaultSchedule crash;
    crash.crash(seconds(20));
    scenarios.push_back({"crash", crash});
  }
  if (!smoke) {
    // One server is cut off for 12s, then healed: long enough for the
    // detector to fire and the fleet to route around it, and the healed
    // server must rejoin cleanly.
    fault::FaultSchedule partition;
    partition.partition(seconds(20), 1, seconds(12));
    scenarios.push_back({"partition", partition});
  }

  // Detection takes at most the detector timeout plus two balancer ticks.
  const SimTime budget =
      fault::kDetectorTimeout + 2 * core::BalancerBase::kTickInterval + seconds(5);

  std::ofstream summary("fig_failover.csv");
  summary << "scenario,reliability,published,expected,delivered,lost,duplicates,"
             "detection_ms,recovery_ms,budget_ms,emergency_rebalances,republishes,"
             "gaps_detected,recovered,gave_up,pass\n";
  std::ofstream audit("fig_failover_audit.txt");

  bool all_pass = true;
  for (const Scenario& scenario : scenarios) {
    for (const bool reliability : {false, true}) {
      harness::ChannelScenario config = harness::failover_scenario();
      config.seed = 7;
      config.faults = scenario.schedule;
      config.reliability = reliability;
      if (smoke) {
        config.duration = seconds(35);
        config.drain = seconds(15);
      }
      const harness::ChannelScenarioResult r = harness::run_channel_scenario(config);

      const std::string arm = reliability ? "reliable" : "besteffort";
      const std::string tag = scenario.name + "_" + arm;
      r.metrics.save_windows_csv("fig_failover_" + tag + ".csv");

      const double detection_ms =
          r.detection_latency >= 0 ? to_seconds(r.detection_latency) * 1e3 : -1;
      const double recovery_ms =
          r.recovery_latency >= 0 ? to_seconds(r.recovery_latency) * 1e3 : -1;
      bool pass = r.recovery_latency >= 0 && r.recovery_latency <= budget;
      if (reliability && r.lost != 0) pass = false;
      all_pass = all_pass && pass;

      summary << scenario.name << ',' << (reliability ? 1 : 0) << ',' << r.published
              << ',' << r.expected << ',' << r.delivered_unique << ',' << r.lost << ','
              << r.duplicates << ',' << detection_ms << ',' << recovery_ms << ','
              << to_seconds(budget) * 1e3 << ',' << r.lb_stats.emergency_rebalances
              << ',' << r.client_totals.republishes << ','
              << r.reliability_totals.gaps_detected << ','
              << r.reliability_totals.recovered << ',' << r.reliability_totals.gave_up
              << ',' << (pass ? 1 : 0) << '\n';

      std::printf("== %s ==\n", tag.c_str());
      std::printf("   published %llu  delivered %llu/%llu  lost %llu  dups %llu\n",
                  static_cast<unsigned long long>(r.published),
                  static_cast<unsigned long long>(r.delivered_unique),
                  static_cast<unsigned long long>(r.expected),
                  static_cast<unsigned long long>(r.lost),
                  static_cast<unsigned long long>(r.duplicates));
      std::printf("   detection %.0f ms  recovery %.0f ms (budget %.0f ms)  %s\n",
                  detection_ms, recovery_ms, to_seconds(budget) * 1e3,
                  pass ? "PASS" : "FAIL");
      std::printf("   emergency rebalances %llu  republishes %llu  replay "
                  "gaps %llu recovered %llu gave_up %llu\n\n",
                  static_cast<unsigned long long>(r.lb_stats.emergency_rebalances),
                  static_cast<unsigned long long>(r.client_totals.republishes),
                  static_cast<unsigned long long>(r.reliability_totals.gaps_detected),
                  static_cast<unsigned long long>(r.reliability_totals.recovered),
                  static_cast<unsigned long long>(r.reliability_totals.gave_up));

      audit << "==== " << tag << " ====\n-- faults --\n";
      for (const auto& f : r.faults) {
        audit << "  t=" << to_seconds(f.time) << "s " << fault::to_string(f.kind)
              << (f.reversal ? " (reversal)" : "") << ": " << f.detail << '\n';
      }
      audit << "-- liveness --\n";
      for (const auto& ev : r.liveness) {
        audit << "  t=" << to_seconds(ev.time) << "s server " << ev.server << ' '
              << (ev.kind == core::BalancerBase::LivenessEvent::Kind::kSuspected
                      ? "SUSPECTED"
                      : "REJOINED")
              << " (silence " << to_seconds(ev.silence) << "s)\n";
      }
      audit << "-- rebalance audit --\n" << r.audit_timeline << '\n';
    }
  }

  std::printf("%s\n", all_pass ? "ALL PASS" : "SOME RUNS FAILED");
  return all_pass ? 0 : 1;
}
