/// google-benchmark micro-benchmarks for the substrate components: the
/// per-call costs that determine end-to-end tuning throughput (how much
/// search the auto-scheduler performs per measurement trial).

#include <benchmark/benchmark.h>

#include <numeric>

#include "core/harl.hpp"

namespace harl {
namespace {

const HardwareConfig& hw() {
  static HardwareConfig h = [] {
    HardwareConfig c = HardwareConfig::xeon_6226r();
    c.noise_sigma = 0;
    return c;
  }();
  return h;
}

void BM_SketchGeneration(benchmark::State& state) {
  Subgraph g = make_gemm_act(1024, 1024, 1024);
  for (auto _ : state) {
    auto sketches = generate_sketches(g);
    benchmark::DoNotOptimize(sketches);
  }
}
BENCHMARK(BM_SketchGeneration);

void BM_RandomSchedule(benchmark::State& state) {
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(1);
  for (auto _ : state) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RandomSchedule);

void BM_SimulateGemm(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(2);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(sim.simulate_ms(s));
}
BENCHMARK(BM_SimulateGemm);

void BM_SimulateConv2dFused(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_conv2d_relu(1, 14, 14, 256, 256, 3, 1, 1);
  auto sketches = generate_sketches(g);
  Rng rng(3);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(sim.simulate_ms(s));
}
BENCHMARK(BM_SimulateConv2dFused);

void BM_FeatureExtraction(benchmark::State& state) {
  FeatureExtractor fx(&hw());
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(4);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(fx.extract(s));
}
BENCHMARK(BM_FeatureExtraction);

void BM_CostModelPredict(benchmark::State& state) {
  CostSimulator sim(hw());
  XgbCostModel model(&hw());
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(5);
  std::vector<Schedule> ss;
  std::vector<double> ts;
  for (int i = 0; i < 256; ++i) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    ts.push_back(sim.simulate_ms(s));
    ss.push_back(std::move(s));
  }
  model.update(ss, ts);
  Schedule probe = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(probe));
}
BENCHMARK(BM_CostModelPredict);

void BM_CostModelRefit256(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(6);
  std::vector<Schedule> ss;
  std::vector<double> ts;
  for (int i = 0; i < 256; ++i) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    ts.push_back(sim.simulate_ms(s));
    ss.push_back(std::move(s));
  }
  for (auto _ : state) {
    XgbCostModel model(&hw());
    model.update(ss, ts);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_CostModelRefit256);

/// The PPO shapes HARL runs on a GEMM task: the observation width, head
/// sizes and tile mask of the first sketch, and quick_options' PpoConfig
/// (minibatch 32, 2 epochs).
struct PpoShape {
  std::vector<double> obs;
  std::vector<bool> mask;
  std::vector<int> heads;
  PpoConfig cfg = quick_options("HARL", 1).harl.ppo;

  explicit PpoShape(Rng& rng) {
    Subgraph g = make_gemm(1024, 1024, 1024);
    auto sketches = generate_sketches(g);
    ActionSpace space(sketches[0], hw().num_unroll_options());
    FeatureExtractor fx(&hw());
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    obs = rl_observation(fx, space, s);
    space.tile_action_mask(s, &mask);
    auto sizes = space.head_sizes();
    heads.assign(sizes.begin(), sizes.end());
  }
};

/// Names the MLP kernel variant the PPO numbers were taken with.
void label_kernel(benchmark::State& state) {
  state.SetLabel(detail::mlp_kernel_name(detail::mlp_kernel()));
}

void BM_PpoAct(benchmark::State& state) {
  Rng rng(7);
  PpoShape shape(rng);
  PpoAgent agent(static_cast<int>(shape.obs.size()), shape.heads, shape.cfg, 1);
  for (auto _ : state) benchmark::DoNotOptimize(agent.act(shape.obs, shape.mask, rng));
  label_kernel(state);
}
BENCHMARK(BM_PpoAct);

/// One window step of HARL's batched act over `range(0)` alive tracks.
void BM_PpoActBatch(benchmark::State& state) {
  Rng rng(7);
  PpoShape shape(rng);
  PpoAgent agent(static_cast<int>(shape.obs.size()), shape.heads, shape.cfg, 1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> obs(n, shape.obs);
  for (std::size_t k = 0; k < n; ++k) obs[k][k % obs[k].size()] += 0.01 * static_cast<double>(k);
  std::vector<const std::vector<double>*> rows;
  for (const std::vector<double>& o : obs) rows.push_back(&o);
  std::vector<std::vector<bool>> masks(n, shape.mask);
  std::vector<PpoAgent::ActResult> out;
  for (auto _ : state) {
    agent.act_batch(rows, masks, rng, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  label_kernel(state);
}
BENCHMARK(BM_PpoActBatch)->Arg(32)->Arg(16)->Arg(8);

void BM_PpoTrainMinibatch(benchmark::State& state) {
  Rng rng(8);
  PpoShape shape(rng);
  PpoAgent agent(static_cast<int>(shape.obs.size()), shape.heads, shape.cfg, 2);
  for (int i = 0; i < 512; ++i) {
    PpoTransition t;
    t.obs = shape.obs;
    t.obs[static_cast<std::size_t>(i) % t.obs.size()] += rng.next_double();
    for (int h : shape.heads) t.actions.push_back(rng.next_int(0, h - 1));
    while (!shape.mask[static_cast<std::size_t>(t.actions[0])]) {
      t.actions[0] = rng.next_int(0, shape.heads[0] - 1);
    }
    t.head0_mask = shape.mask;
    t.logp = -2.0;
    t.reward = rng.next_normal();
    agent.store(std::move(t));
  }
  for (auto _ : state) benchmark::DoNotOptimize(agent.train(rng));
  label_kernel(state);
}
BENCHMARK(BM_PpoTrainMinibatch);

/// One Adam step of a net shaped as the actor of BM_PpoTrainMinibatch, on a
/// fixed gradient.
void BM_MlpAdamStep(benchmark::State& state) {
  Rng rng(12);
  PpoShape shape(rng);
  const int hidden = shape.cfg.hidden_dim;
  Mlp net({static_cast<int>(shape.obs.size()), hidden, hidden,
           std::accumulate(shape.heads.begin(), shape.heads.end(), 0)},
          rng);
  Mlp::Workspace ws;
  net.zero_grad(ws);
  std::vector<double> dout(static_cast<std::size_t>(net.out_dim()), 0.01);
  net.forward(shape.obs.data(), 1, ws);
  net.backward(dout.data(), ws);
  for (auto _ : state) {
    net.adam_step(1e-4, ws);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(net.num_parameters()));
  label_kernel(state);
}
BENCHMARK(BM_MlpAdamStep);

void BM_SwUcbSelectUpdate(benchmark::State& state) {
  SwUcb bandit(24);  // ResNet-50 task count
  Rng rng(9);
  for (auto _ : state) {
    int a = bandit.select();
    bandit.update(a, rng.next_double());
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SwUcbSelectUpdate);

void BM_ActionMaskGemm(benchmark::State& state) {
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw().num_unroll_options());
  Rng rng(10);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  std::vector<bool> mask;
  for (auto _ : state) {
    space.tile_action_mask(s, &mask);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_ActionMaskGemm);

void BM_MeasureBatch64(benchmark::State& state) {
  CostSimulator sim(hw());
  Measurer measurer(&sim, 11);
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(11);
  std::vector<Schedule> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(random_schedule(sketches[0], hw().num_unroll_options(), rng));
  }
  for (auto _ : state) benchmark::DoNotOptimize(measurer.measure_batch(batch));
}
BENCHMARK(BM_MeasureBatch64);

}  // namespace
}  // namespace harl

BENCHMARK_MAIN();
