#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "search/adaptive_stopping.hpp"
#include "util/thread_pool.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

TEST(SelectEliminations, DropsLowestAdvantageHalf) {
  std::vector<double> adv = {0.9, 0.1, 0.5, 0.2, 0.8, 0.3};
  auto kill = select_eliminations(adv, 0.5, 1);
  // floor(0.5 * 6) = 3 lowest: indices 1 (0.1), 3 (0.2), 5 (0.3).
  EXPECT_EQ(kill, (std::vector<int>{1, 3, 5}));
}

TEST(SelectEliminations, RespectsMinTracks) {
  std::vector<double> adv = {0.1, 0.2, 0.3, 0.4};
  auto kill = select_eliminations(adv, 0.75, 3);
  // Would drop 3, but only 1 allowed to keep 3 alive.
  EXPECT_EQ(kill, (std::vector<int>{0}));
}

TEST(SelectEliminations, NothingToDropAtFloor) {
  std::vector<double> adv = {0.1, 0.2};
  EXPECT_TRUE(select_eliminations(adv, 0.5, 2).empty());
  EXPECT_TRUE(select_eliminations(adv, 0.5, 5).empty());
}

TEST(SelectEliminations, StableTieBreaking) {
  std::vector<double> adv = {0.5, 0.5, 0.5, 0.5};
  auto kill = select_eliminations(adv, 0.5, 0);
  EXPECT_EQ(kill, (std::vector<int>{0, 1}));  // earlier indices drop first
}

TEST(AdaptiveVisitBudget, PaperDefaultGeometry) {
  // Table 5 defaults: I=256, rho=0.5, p-hat=64, lambda=20:
  // 256*20 + 128*20 + 64*20 = 8960 visits.
  AdaptiveStopConfig cfg;
  EXPECT_EQ(adaptive_visit_budget(cfg), 8960);
  EXPECT_EQ(fixed_length_for_budget(cfg), 35);  // ceil(8960 / 256)
}

TEST(AdaptiveVisitBudget, Figure4Accounting) {
  // Figure 4: lambda = L/2 and rho = 0.5 matches a fixed-length search of
  // length L on the same track count. With 6 tracks, L=4, lambda=2, min 1:
  // adaptive visits 6*2 + 3*2 + 2*2 (floor(0.5*3)=1 killed) + 1*2 = 24 =
  // fixed 6*4 = 24.
  AdaptiveStopConfig cfg;
  cfg.initial_tracks = 6;
  cfg.window = 2;
  cfg.elimination = 0.5;
  cfg.min_tracks = 1;
  EXPECT_EQ(adaptive_visit_budget(cfg), 24);
  EXPECT_EQ(fixed_length_for_budget(cfg), 4);
}

TEST(AdaptiveVisitBudget, DegenerateSingleTrack) {
  AdaptiveStopConfig cfg;
  cfg.initial_tracks = 1;
  cfg.min_tracks = 1;
  cfg.window = 7;
  EXPECT_EQ(adaptive_visit_budget(cfg), 7);
  EXPECT_EQ(fixed_length_for_budget(cfg), 7);
}

TEST(AdaptiveVisitBudget, ZeroEliminationTerminates) {
  AdaptiveStopConfig cfg;
  cfg.initial_tracks = 10;
  cfg.min_tracks = 2;
  cfg.elimination = 0.0;  // floor(0) killed -> loop must still stop
  cfg.window = 5;
  EXPECT_EQ(adaptive_visit_budget(cfg), 50);
}

// ---- adaptive stopping x adaptive-sampling trial filter ------------------
// The HARL episode's elimination decisions (and every other downstream
// consumer of the measurement stream) must be a pure function of the
// *measured* records: candidates the trial filter credits without a
// simulator run may not perturb stopping, trials accounting, or the curve.

SearchOptions filtered_options(std::uint64_t seed, ThreadPool* pool) {
  SearchOptions opts = quick_options("HARL", seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 8;
  opts.value_guide.enabled = true;  // trial filter needs no value model
  opts.value_guide.sample_clusters = 3;
  opts.pool = pool;
  return opts;
}

TEST(TrialFilterStopping, MeasuredStreamExcludesCreditedCandidates) {
  Subgraph g = make_gemm(64, 64, 64);
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  ThreadPool pool(1);
  TuningSession session(g, hw, filtered_options(11, &pool));
  session.run(48);

  const TaskState& task = session.scheduler().task(0);
  // The filter was active (8-candidate batches cut to 3 representatives).
  EXPECT_GT(task.credited_candidates(), 0);
  // Trials accounting stays the measured stream: what the task spent is what
  // the simulator ran — credited candidates never consumed a trial.
  EXPECT_EQ(task.trials_spent(), session.measurer().trials_used());
  // The stopping/gradient snapshots advance in measured trials only: every
  // curve point sits at most at the measurer's trial counter.
  for (const CurvePoint& p : task.curve()) {
    EXPECT_LE(p.trials, session.measurer().trials_used());
  }
}

TEST(TrialFilterStopping, StoppingDecisionsReplayDeterministically) {
  // Same options + seed -> the elimination schedule (visible as the round
  // structure and per-round trial consumption) replays exactly, with the
  // filter armed.
  Subgraph g = make_gemm(64, 64, 64);
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  ThreadPool pool(1);
  auto run_one = [&]() {
    TuningSession session(g, hw, filtered_options(11, &pool));
    session.run(48);
    return std::make_pair(session.scheduler().round_log(),
                          session.latency_ms());
  };
  auto [log_a, lat_a] = run_one();
  auto [log_b, lat_b] = run_one();
  EXPECT_EQ(lat_a, lat_b);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].task, log_b[i].task);
    EXPECT_EQ(log_a[i].trials_after, log_b[i].trials_after);
    EXPECT_EQ(log_a[i].net_latency_ms, log_b[i].net_latency_ms);
  }
}

TEST(TrialFilterStopping, PinnedSerialVsParallel) {
  // The measured stream the stopping rule consumes is bit-identical between
  // a 1-thread and a 4-thread pool with the filter armed.
  Subgraph g = make_gemm(64, 64, 64);
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  auto run_one = [&](ThreadPool* pool) {
    TuningSession session(g, hw, filtered_options(11, pool));
    session.run(48);
    std::int64_t credited = session.scheduler().task(0).credited_candidates();
    return std::make_tuple(session.scheduler().round_log(),
                           session.latency_ms(), credited);
  };
  ThreadPool serial(1), wide(4);
  auto [log_s, lat_s, cred_s] = run_one(&serial);
  auto [log_w, lat_w, cred_w] = run_one(&wide);
  EXPECT_EQ(lat_s, lat_w);
  EXPECT_EQ(cred_s, cred_w);
  ASSERT_EQ(log_s.size(), log_w.size());
  for (std::size_t i = 0; i < log_s.size(); ++i) {
    EXPECT_EQ(log_s[i].task, log_w[i].task);
    EXPECT_EQ(log_s[i].trials_after, log_w[i].trials_after);
    EXPECT_EQ(log_s[i].net_latency_ms, log_w[i].net_latency_ms);
  }
}

}  // namespace
}  // namespace harl
