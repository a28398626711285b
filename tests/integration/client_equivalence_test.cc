// Client-layer equivalence: the receive path (duplicate filter, id-keyed
// channel lookup, inline delivery wrapper) must make exactly the decisions
// the fixed 8192-id LRU filter it replaced made. Two reduced experiment runs
// sum every client's received / duplicates-suppressed / stale-drop counters
// and compare them with the values that filter produced on the same seeds.
// The mean per-client dedup footprint is bounded as well (the LRU filter
// held about 320 KiB per client regardless of traffic).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "cohort/cohort.h"
#include "core/client.h"
#include "mammoth/experiments.h"
#include "mammoth/game.h"

namespace dynamoth {
namespace {

using mammoth::exp::BalancerKind;
using mammoth::exp::GameExperimentConfig;
using mammoth::exp::GameExperimentRun;

/// Mean per-client dedup footprint bound, in bytes.
constexpr std::size_t kMaxMeanDedupBytes = 32 * 1024;

struct ClientTotals {
  std::uint64_t received = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t stale_drops = 0;
  std::size_t clients = 0;
  std::size_t dedup_bytes = 0;

  void add(const core::DynamothClient& c) {
    received += c.stats().received;
    duplicates_suppressed += c.stats().duplicates_suppressed;
    stale_drops += c.stats().stale_drops;
    dedup_bytes += c.dedup_bytes();
    ++clients;
  }
};

ClientTotals run_and_sum(const GameExperimentConfig& config) {
  GameExperimentRun run(config);
  run.run_until(config.duration);
  ClientTotals totals;
  mammoth::Game& game = run.game();
  if (game.cohort_mode()) {
    const int side = config.game.tiles_per_side;
    for (std::size_t i = 0; i < static_cast<std::size_t>(side * side); ++i) {
      if (cohort::Cohort* c = game.tile_cohort(i)) totals.add(c->client());
    }
  } else {
    for (std::size_t i = 0; i < game.total_players_created(); ++i) {
      totals.add(game.player(i).client());
    }
  }
  (void)run.finish();
  return totals;
}

TEST(ClientEquivalence, ReducedFig5RampMatchesLruDecisions) {
  // The Fig-5 Dynamoth arm, shortened: 120 -> 400 players by 60 sim-s, run
  // to 90 sim-s: long enough for migrations (duplicates) and for words to
  // pass the 60 s horizon.
  GameExperimentConfig config = mammoth::exp::default_game_experiment();
  config.seed = 77;
  config.balancer = BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(60), 400}};
  config.duration = seconds(90);
  config.sample_interval = seconds(10);

  const ClientTotals t = run_and_sum(config);
  EXPECT_EQ(t.received, 327571u);
  EXPECT_EQ(t.duplicates_suppressed, 14326u);
  EXPECT_EQ(t.stale_drops, 13905u);
  ASSERT_EQ(t.clients, 400u);
  std::printf("mean dedup footprint: %zu B\n", t.dedup_bytes / t.clients);
  EXPECT_LE(t.dedup_bytes / t.clients, kMaxMeanDedupBytes);
}

TEST(ClientEquivalence, SmallCohortRunMatchesLruDecisions) {
  // Cohort mode at 5,000 modeled users: one client per occupied tile, each
  // hearing cohort publishers at thousands of seqs per second.
  GameExperimentConfig config = mammoth::exp::default_game_experiment();
  config.seed = 77;
  config.balancer = BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(60), 1200}};
  config.duration = seconds(80);
  config.sample_interval = seconds(1);
  mammoth::exp::scale_population(config, 5000.0 / 1200.0);

  const ClientTotals t = run_and_sum(config);
  EXPECT_EQ(t.received, 483490u);
  EXPECT_EQ(t.duplicates_suppressed, 3198u);
  EXPECT_EQ(t.stale_drops, 0u);
  ASSERT_EQ(t.clients, 144u);
  std::printf("mean dedup footprint: %zu B\n", t.dedup_bytes / t.clients);
  EXPECT_LE(t.dedup_bytes / t.clients, kMaxMeanDedupBytes);
}

}  // namespace
}  // namespace dynamoth
