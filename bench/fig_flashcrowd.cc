// Flash-crowd figure: wildcard (PSUBSCRIBE) listeners under a popularity
// spike, with and without a server crash mid-spike.
//
// Eight "fc:<i>" channels publish at 10 Hz; wildcard clients psubscribe
// "fc:*" while plain clients subscribe to every channel explicitly. At
// t=15s one channel's publish rate ramps 50x in 3 seconds and a crowd of
// explicit joiners piles on, tripping Algorithm 1 replication and the
// system-level rebalancer; the crash arm kills a server at the spike's
// peak on top. A raw substrate PSUBSCRIBE pinned to one server (the
// pre-fix behaviour) runs alongside and counts its silent misses.
//
// Outputs:
//   fig_flashcrowd.csv             one summary row per scenario (expected/lost:
//                                  the explicit arm's best-effort loss)
//   fig_flashcrowd_<scenario>.csv  per-window metrics (rates, spike factor)
//   fig_flashcrowd_audit.txt       rebalance audit timelines
//
// Exit status is non-zero when a wildcard listener missed a publication
// every explicit subscriber received (the cross-server miss this PR fixes),
// or when pattern expansion never happened at all.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/channel_scenario.h"

int main(int argc, char** argv) {
  using namespace dynamoth;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  struct Scenario {
    std::string name;
    harness::FlashCrowdSchedule spikes;
    fault::FaultSchedule faults;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario spike;
    spike.name = "spike";
    // 50x: past the scaled Algorithm 1 thresholds (replication churn is the
    // point) and under the NIC line rate. Best-effort loss is still ~10% at
    // the explicit arm (the lost column); the equivalence gate only counts
    // publications every explicit subscriber received, so that loss is
    // charged to neither arm.
    spike.spikes.spike(seconds(15), 0, 50.0, seconds(3), seconds(10), seconds(8),
                       /*join=*/6);
    scenarios.push_back(spike);
  }
  if (!smoke) {
    // The crash lands at the spike's peak: the emergency re-home and the
    // replication entries churn while pattern fan-out is at its highest.
    Scenario crash;
    crash.name = "spike_crash";
    crash.spikes.spike(seconds(15), 0, 50.0, seconds(3), seconds(10), seconds(8),
                       /*join=*/6);
    crash.faults.crash(seconds(22));
    scenarios.push_back(crash);
  }

  std::ofstream summary("fig_flashcrowd.csv");
  summary << "scenario,published,pattern_delivered,explicit_delivered,expected,lost,"
             "crowd_delivered,pattern_missing,pattern_dups,explicit_dups,raw_received,"
             "raw_missed,patterns_expanded,replications,plans,emergency_rebalances,"
             "peak_servers,pass\n";
  std::ofstream audit("fig_flashcrowd_audit.txt");

  bool all_pass = true;
  for (const Scenario& scenario : scenarios) {
    harness::ChannelScenario config = harness::flashcrowd_scenario();
    config.seed = 11;
    config.spikes = scenario.spikes;
    config.faults = scenario.faults;
    if (smoke) {
      config.duration = seconds(45);
      config.drain = seconds(15);
    }
    const harness::ChannelScenarioResult r = harness::run_channel_scenario(config);

    r.metrics.save_windows_csv("fig_flashcrowd_" + scenario.name + ".csv");

    const bool pass = r.pattern_missing == 0 && r.patterns_expanded > 0;
    all_pass = all_pass && pass;

    summary << scenario.name << ',' << r.published << ',' << r.pattern_delivered_unique
            << ',' << r.delivered_unique << ',' << r.expected << ',' << r.lost << ','
            << r.crowd_delivered_unique << ',' << r.pattern_missing << ','
            << r.pattern_duplicates << ',' << r.duplicates << ',' << r.raw_received << ','
            << r.raw_missed
            << ',' << r.patterns_expanded << ',' << r.lb_stats.replications_started
            << ',' << r.lb_stats.plans_generated << ','
            << r.lb_stats.emergency_rebalances << ',' << r.peak_servers << ','
            << (pass ? 1 : 0) << '\n';

    std::printf("== %s ==\n", scenario.name.c_str());
    std::printf("   published %llu  pattern %llu  explicit %llu  crowd %llu\n",
                static_cast<unsigned long long>(r.published),
                static_cast<unsigned long long>(r.pattern_delivered_unique),
                static_cast<unsigned long long>(r.delivered_unique),
                static_cast<unsigned long long>(r.crowd_delivered_unique));
    std::printf("   explicit arm: delivered %llu/%llu  lost %llu\n",
                static_cast<unsigned long long>(r.delivered_unique),
                static_cast<unsigned long long>(r.expected),
                static_cast<unsigned long long>(r.lost));
    std::printf("   pattern_missing %llu  dups %llu/%llu  expanded %llu  %s\n",
                static_cast<unsigned long long>(r.pattern_missing),
                static_cast<unsigned long long>(r.pattern_duplicates),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.patterns_expanded),
                pass ? "PASS" : "FAIL");
    std::printf("   raw arm: received %llu missed %llu (pre-fix single-server "
                "PSUBSCRIBE)\n",
                static_cast<unsigned long long>(r.raw_received),
                static_cast<unsigned long long>(r.raw_missed));
    std::printf("   replications %llu  plans %llu  emergency %llu  peak servers %llu\n\n",
                static_cast<unsigned long long>(r.lb_stats.replications_started),
                static_cast<unsigned long long>(r.lb_stats.plans_generated),
                static_cast<unsigned long long>(r.lb_stats.emergency_rebalances),
                static_cast<unsigned long long>(r.peak_servers));

    audit << "==== " << scenario.name << " ====\n" << r.audit_timeline << '\n';
  }

  std::printf("%s\n", all_pass ? "ALL PASS" : "SOME RUNS FAILED");
  return all_pass ? 0 : 1;
}
