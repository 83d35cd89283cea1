#include <gtest/gtest.h>

#include <cmath>

#include "core/fleet.hpp"
#include "core/presets.hpp"
#include "util/thread_pool.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

Network small_network(const char* name, int dim, double weight) {
  Network net;
  net.name = name;
  net.subgraphs.push_back(make_gemm(dim, dim, dim, 1, "gemm", weight));
  net.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "ew", 1.0));
  return net;
}

SearchOptions small_options(std::uint64_t seed) {
  SearchOptions opts = quick_options("HARL", seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;
  return opts;
}

FleetWorkload make_workload(const char* name, int dim, std::uint64_t seed,
                            std::int64_t trials) {
  FleetWorkload w;
  w.network = small_network(name, dim, 2.0);
  w.hardware = HardwareConfig::xeon_6226r();
  w.hardware.noise_sigma = 0.05;
  w.options = small_options(seed);
  w.trials = trials;
  return w;
}

TEST(FleetTuner, TunesEveryWorkloadWithinBudget) {
  ThreadPool pool(2);
  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.measure_pool = &pool;
  FleetTuner fleet(opts);
  fleet.add(make_workload("net_a", 64, 1, 30));
  fleet.add(make_workload("net_b", 96, 2, 30));
  fleet.add(make_workload("net_c", 48, 3, 30));

  FleetReport report = fleet.run();
  ASSERT_EQ(report.networks.size(), 3u);
  for (const FleetNetworkResult& r : report.networks) {
    EXPECT_EQ(r.num_tasks, 2);
    EXPECT_GE(r.trials_used, 30);
    EXPECT_LT(r.trials_used, 30 + 10);
    EXPECT_TRUE(std::isfinite(r.latency_ms));
    EXPECT_GT(r.rounds, 0u);
  }
  EXPECT_EQ(report.total_trials, report.networks[0].trials_used +
                                     report.networks[1].trials_used +
                                     report.networks[2].trials_used);
  EXPECT_NE(report.to_string().find("net_b"), std::string::npos);
}

// Fleet concurrency must not leak between sessions: each network's outcome
// equals tuning it alone with the same options.
TEST(FleetTuner, ConcurrentResultsMatchSoloRuns) {
  auto solo = [](FleetWorkload w) {
    TuningSession session(w.network, w.hardware, w.options);
    session.run(w.trials);
    return std::make_pair(session.latency_ms(),
                          session.measurer().trials_used());
  };
  auto [lat_a, trials_a] = solo(make_workload("net_a", 64, 7, 40));
  auto [lat_b, trials_b] = solo(make_workload("net_b", 96, 8, 40));

  ThreadPool pool(4);
  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.measure_pool = &pool;
  FleetTuner fleet(opts);
  fleet.add(make_workload("net_a", 64, 7, 40));
  fleet.add(make_workload("net_b", 96, 8, 40));
  FleetReport report = fleet.run();

  EXPECT_EQ(report.networks[0].latency_ms, lat_a);
  EXPECT_EQ(report.networks[0].trials_used, trials_a);
  EXPECT_EQ(report.networks[1].latency_ms, lat_b);
  EXPECT_EQ(report.networks[1].trials_used, trials_b);
}

TEST(FleetTuner, EmptyFleetAndRerun) {
  FleetTuner fleet;
  FleetReport empty = fleet.run();
  EXPECT_TRUE(empty.networks.empty());
  EXPECT_EQ(empty.total_trials, 0);

  fleet.add(make_workload("net_a", 48, 4, 20));
  FleetReport first = fleet.run();
  FleetReport second = fleet.run();  // re-runs from scratch, deterministic
  ASSERT_EQ(first.networks.size(), 1u);
  EXPECT_EQ(first.networks[0].latency_ms, second.networks[0].latency_ms);
  EXPECT_EQ(first.networks[0].trials_used, second.networks[0].trials_used);
}

}  // namespace
}  // namespace harl
