#include <gtest/gtest.h>

#include <cmath>

#include "core/harl.hpp"

namespace harl {
namespace {

SearchOptions fast(const std::string& policy, std::uint64_t seed = 21) {
  SearchOptions opts = quick_options(policy, seed);
  opts.harl.stop.initial_tracks = 16;
  opts.harl.stop.min_tracks = 4;
  opts.harl.stop.window = 5;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.ansor.population = 48;
  opts.ansor.generations = 3;
  return opts;
}

TEST(Integration, TuningSessionRunsOperator) {
  TuningSession session(make_gemm(256, 256, 256), HardwareConfig::xeon_6226r(),
                        fast("HARL"));
  session.run(100);
  EXPECT_GE(session.measurer().trials_used(), 100);
  EXPECT_TRUE(std::isfinite(session.task_best_ms(0)));
  EXPECT_GT(session.wall_seconds(), 0);
}

TEST(Integration, HarlBeatsRandomInitialization) {
  // The tuned best must beat the average random schedule by a wide margin.
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0;
  Subgraph g = make_gemm(512, 512, 512);
  CostSimulator sim(hw);
  Rng rng(3);
  auto sketches = generate_sketches(g);
  double random_mean = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    random_mean += sim.simulate_ms(
        random_schedule(sketches[0], hw.num_unroll_options(), rng));
  }
  random_mean /= n;

  TuningSession session(g, hw, fast("HARL"));
  session.run(200);
  EXPECT_LT(session.task_best_ms(0), random_mean / 4);
}

TEST(Integration, SameSeedIsDeterministic) {
  auto run_once = [] {
    TuningSession session(make_gemm(128, 256, 128), HardwareConfig::xeon_6226r(),
                          fast("HARL", 77));
    session.run(60);
    return session.task_best_ms(0);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Integration, DifferentSeedsExploreDifferently) {
  auto run_once = [](std::uint64_t seed) {
    TuningSession session(make_gemm(128, 256, 128), HardwareConfig::xeon_6226r(),
                          fast("HARL", seed));
    session.run(60);
    return session.task_best_ms(0);
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(Integration, NetworkTuningProducesFiniteLatency) {
  Network net = make_bert(1);
  // Trim to 4 subgraphs to keep the test fast while exercising the
  // multi-task path.
  net.subgraphs.resize(4);
  TuningSession session(std::move(net), HardwareConfig::xeon_6226r(),
                        fast("HARL"));
  session.run(250);
  EXPECT_TRUE(std::isfinite(session.latency_ms()));
  EXPECT_GT(session.latency_ms(), 0);
  auto alloc = session.scheduler().task_allocations();
  for (std::int64_t a : alloc) EXPECT_GT(a, 0);
}

TEST(Integration, GpuPlatformTunes) {
  TuningSession session(make_gemm(256, 256, 256), HardwareConfig::rtx3090(),
                        fast("HARL"));
  session.run(100);
  EXPECT_TRUE(std::isfinite(session.task_best_ms(0)));
}

TEST(Integration, TrialsToReachAndBestAt) {
  std::vector<CurvePoint> curve = {{0, 10.0}, {5, 8.0}, {9, 3.0}, {20, 2.5}};
  EXPECT_EQ(trials_to_reach(curve, 9.0), 5);
  EXPECT_EQ(trials_to_reach(curve, 3.0), 9);
  EXPECT_EQ(trials_to_reach(curve, 1.0), -1);
  EXPECT_DOUBLE_EQ(best_at(curve, 7), 8.0);
  EXPECT_DOUBLE_EQ(best_at(curve, 100), 2.5);
  EXPECT_TRUE(std::isinf(best_at(curve, -1)));
}

TEST(Integration, WorkloadInventoriesMatchDesign) {
  EXPECT_EQ(make_bert(1).subgraphs.size(), 10u);        // Table 4 inventory
  EXPECT_EQ(make_resnet50(1).subgraphs.size(), 24u);    // Section 4.1
  EXPECT_EQ(make_mobilenet_v2(1).subgraphs.size(), 21u);
  for (const std::string& name : network_names()) {
    Network net = make_network(name, 16);
    for (const Subgraph& g : net.subgraphs) {
      EXPECT_EQ(g.validate(), "") << net.name << "/" << g.name();
      EXPECT_FALSE(generate_sketches(g).empty()) << g.name();
    }
  }
  EXPECT_THROW(make_network("vgg", 1), std::invalid_argument);
}

TEST(Integration, Table6SuitesAllTunable) {
  // Every Table 6 case builds, validates and yields sketches at both batch
  // sizes used in the paper.
  for (std::int64_t batch : {1, 16}) {
    auto cases = table6_all(batch);
    EXPECT_EQ(cases.size(), 28u);  // 7 suites x 4 configs
    for (const OperatorCase& c : cases) {
      EXPECT_EQ(c.graph.validate(), "") << c.suite << c.config;
      EXPECT_FALSE(generate_sketches(c.graph).empty()) << c.suite << c.config;
    }
  }
  EXPECT_THROW(table6_suite("GEMM-XXL", 1), std::invalid_argument);
}

TEST(Integration, QuickAndPaperPresetsDiffer) {
  SearchOptions quick = quick_options("HARL");
  SearchOptions paper = paper_options("HARL");
  EXPECT_LT(quick.harl.stop.initial_tracks, paper.harl.stop.initial_tracks);
  EXPECT_EQ(paper.harl.stop.initial_tracks, 256);
  EXPECT_EQ(paper.harl.stop.min_tracks, 64);
  EXPECT_EQ(paper.harl.stop.window, 20);
  EXPECT_DOUBLE_EQ(paper.harl.ppo.lr_actor, 3e-4);
  EXPECT_DOUBLE_EQ(paper.harl.ppo.lr_critic, 1e-3);
  EXPECT_DOUBLE_EQ(paper.harl.ppo.gamma, 0.9);
  EXPECT_DOUBLE_EQ(paper.harl.sketch_ucb.c, 0.25);
  EXPECT_EQ(paper.harl.sketch_ucb.window, 256);
}

}  // namespace
}  // namespace harl
