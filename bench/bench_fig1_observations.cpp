/// Reproduces the motivating observations of Figure 1:
///
///  (a) greedy (Ansor-style) trial allocation on BERT's five most
///      time-consuming subgraphs, with the share of trials that only bought
///      the final 1% of improvement (Observation 1: greedy allocation wastes
///      iterations);
///  (b) the distribution of improvement ratios when the next schedule is
///      selected *uniformly* (Ansor's schedule transition assumption):
///      200 random programs x 20 uniform modifications — mass concentrates
///      around ratio 1.0, i.e. most uniform moves do not help;
///  (c) the histogram of the best-schedule position along fixed-length
///      Flextensor search paths on GEMM operators (Observation 2: most paths
///      peak in the first 40% of their steps).

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

namespace {

void figure_1a(const BenchArgs& args) {
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 3000 : 800);
  Network bert = make_bert(1);
  SearchOptions opts = args.options("Ansor");  // greedy allocation
  TuningSession session(std::move(bert), HardwareConfig::xeon_6226r(), opts);
  session.run(trials);

  TaskScheduler& sched = session.scheduler();
  // Find the trial count at which the estimated latency last crossed within
  // 1% of its final value.
  double final_latency = sched.estimated_latency_ms();
  std::int64_t last1pct_start = 0;
  for (const auto& r : sched.round_log()) {
    if (std::isfinite(r.net_latency_ms) && r.net_latency_ms > final_latency * 1.01) {
      last1pct_start = r.trials_after;
    }
  }
  // Allocations per task before/within the last-1% regime.
  std::vector<std::int64_t> total_alloc = sched.task_allocations();
  std::vector<std::int64_t> tail_alloc(total_alloc.size(), 0);
  for (const auto& r : sched.round_log()) {
    if (r.trials_after > last1pct_start) {
      tail_alloc[static_cast<std::size_t>(r.task)] += opts.measures_per_round;
    }
  }
  // Rank tasks by weighted execution time (the "top-5 most time-consuming").
  std::vector<int> order(total_alloc.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sched.network().subgraphs[static_cast<std::size_t>(a)].weight() *
               sched.task(a).best_time_ms() >
           sched.network().subgraphs[static_cast<std::size_t>(b)].weight() *
               sched.task(b).best_time_ms();
  });

  Table t("Figure 1(a): greedy allocations on BERT's top-5 subgraphs");
  t.set_header({"subgraph", "total trials", "trials for last 1%", "bar"});
  std::int64_t max_alloc = 1;
  for (std::int64_t a : total_alloc) max_alloc = std::max(max_alloc, a);
  std::int64_t top5_total = 0, top5_tail = 0, all = 0, all_tail = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    int i = order[k];
    all += total_alloc[static_cast<std::size_t>(i)];
    all_tail += tail_alloc[static_cast<std::size_t>(i)];
    if (k < 5) {
      top5_total += total_alloc[static_cast<std::size_t>(i)];
      top5_tail += tail_alloc[static_cast<std::size_t>(i)];
      t.add(sched.network().subgraphs[static_cast<std::size_t>(i)].name(),
            total_alloc[static_cast<std::size_t>(i)],
            tail_alloc[static_cast<std::size_t>(i)],
            ascii_bar(static_cast<double>(total_alloc[static_cast<std::size_t>(i)]),
                      static_cast<double>(max_alloc), 30));
    }
  }
  t.print();
  std::printf(
      "share of ALL trials spent on the final 1%% improvement: %.1f%%\n"
      "(paper observes >35%% under greedy allocation)\n\n",
      100.0 * static_cast<double>(all_tail) / static_cast<double>(std::max<std::int64_t>(1, all)));
  args.maybe_save(t, "fig1a_allocations");
}

void figure_1b(const BenchArgs& args) {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0;
  CostSimulator sim(hw);
  Rng rng(args.seed ^ 0xF1BULL);
  std::vector<double> ratios;
  auto cases = table6_all(1);
  for (int prog = 0; prog < 200; ++prog) {
    const Subgraph& g = cases[rng.pick_index(cases.size())].graph;
    auto sketches = generate_sketches(g);
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    ActionSpace space(sk, hw.num_unroll_options());
    Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
    double t0 = sim.simulate_ms(s);
    for (int step = 0; step < 20; ++step) {
      Schedule next = s;
      if (!space.mutate(&next, rng)) continue;  // uniform next-schedule pick
      double t1 = sim.simulate_ms(next);
      ratios.push_back(t0 / t1);  // >1 = improvement (perf ratio)
    }
  }
  SampleStats st = compute_stats(ratios);
  Table t("Figure 1(b): improvement ratio of uniform schedule selection");
  t.set_header({"stat", "value"});
  t.add("samples", st.count);
  t.add("median", Table::fmt(st.median, 4));
  t.add("p25", Table::fmt(st.p25, 4));
  t.add("p75", Table::fmt(st.p75, 4));
  t.add("mean", Table::fmt(st.mean, 4));
  double near_one = 0;
  for (double r : ratios) near_one += (r > 0.95 && r < 1.05) ? 1 : 0;
  t.add("share in [0.95, 1.05]", Table::fmt(near_one / st.count, 3));
  t.print();
  std::printf("(paper: the violin mass sits at ratio ~1.0 — uniform moves rarely help)\n\n");
  args.maybe_save(t, "fig1b_improvement_ratio");
}

void figure_1c(const BenchArgs& args) {
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 4000 : 1500);
  SearchOptions opts = args.options("Flextensor");
  Histogram hist(0, 1, 10);
  // Various GEMM operations, as in the paper's observation.
  for (const OperatorCase& c : table6_suite("GEMM-M", 1)) {
    TuningSession session(c.graph, HardwareConfig::xeon_6226r(), opts);
    session.run(trials / 4);
    hist.add_all(session.scheduler().policy(0).critical_positions());
  }
  Table t("Figure 1(c): best-schedule position on fixed-length Flextensor paths");
  t.set_header({"position", "count", "bar"});
  std::size_t max_count = 1;
  for (std::size_t b = 0; b < hist.num_bins(); ++b) {
    max_count = std::max(max_count, hist.count(b));
  }
  for (std::size_t b = 0; b < hist.num_bins(); ++b) {
    t.add(Table::fmt(hist.bin_lo(b) * 100, 0) + "-" + Table::fmt(hist.bin_hi(b) * 100, 0) + "%",
          hist.count(b),
          ascii_bar(static_cast<double>(hist.count(b)), static_cast<double>(max_count), 30));
  }
  t.print();
  double early = 1.0 - hist.fraction_at_or_above(0.4);
  std::printf(
      "share of paths peaking in the first 40%% of steps: %.1f%%\n"
      "(paper: most paths find their best within the first 40%%)\n",
      early * 100);
  args.maybe_save(t, "fig1c_path_efficiency");
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::printf("Figure 1: observations motivating HARL (%s preset)\n\n",
              args.paper ? "paper" : "quick");
  figure_1a(args);
  figure_1b(args);
  figure_1c(args);
  return 0;
}
