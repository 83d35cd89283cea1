/// Reproduces the Appendix A.4 sensitivity studies on the 1024x1024x1024
/// GEMM (1000 trials in the paper):
///
///   Table 7: adaptive-stopping window size lambda in {10, 20, 40, 80} —
///   normalized final performance and normalized wall-clock time per search
///   iteration (small lambda kills tracks too early; large lambda inflates
///   episode cost).
///
///   Table 8: elimination ratio rho in {0.25, 0.5, 0.75} — rho = 0.75 drops
///   promising tracks (performance loss); rho = 0.25 costs more time per
///   iteration for a marginal gain.

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

namespace {

struct Outcome {
  double best_ms = 0;
  double seconds_per_round = 0;
};

/// One setting, averaged over several seeds (single-run variance at reduced
/// trial counts otherwise hides the lambda/rho trade-off).
Outcome run(const BenchArgs& args, std::int64_t trials, int lambda, double rho) {
  const int kSeeds = args.paper ? 1 : 3;
  Outcome avg;
  double inv_best_sum = 0;
  for (int s = 0; s < kSeeds; ++s) {
    SearchOptions opts = args.paper
                             ? paper_options("HARL", args.seed + s)
                             : quick_options("HARL", args.seed + s);
    opts.harl.stop.window = lambda;
    opts.harl.stop.elimination = rho;
    TuningSession session(make_gemm(1024, 1024, 1024), HardwareConfig::xeon_6226r(),
                          opts);
    session.run(trials);
    int rounds = std::max(1, session.scheduler().task(0).rounds());
    inv_best_sum += 1.0 / session.task_best_ms(0);
    avg.seconds_per_round += session.wall_seconds() / rounds;
  }
  avg.best_ms = kSeeds / inv_best_sum;  // harmonic mean of times = mean perf
  avg.seconds_per_round /= kSeeds;
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 1000 : 400);
  std::printf("Tables 7 & 8: adaptive-stopping sensitivity on GEMM 1024^3 "
              "(%lld trials per setting, %s preset)\n\n",
              (long long)trials, args.paper ? "paper" : "quick");

  // --- Table 7: window size lambda ------------------------------------------
  {
    std::vector<int> lambdas = {10, 20, 40, 80};
    std::vector<Outcome> outs;
    for (int l : lambdas) outs.push_back(run(args, trials, l, 0.5));
    double best_perf = 0, max_time = 0;
    for (const Outcome& o : outs) {
      best_perf = std::max(best_perf, 1.0 / o.best_ms);
      max_time = std::max(max_time, o.seconds_per_round);
    }
    Table t7("Table 7: window size lambda");
    t7.set_header({"lambda", "Normalized Performance", "Normalized Time/Iteration"});
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      t7.add(lambdas[i], Table::fmt((1.0 / outs[i].best_ms) / best_perf, 3),
             Table::fmt(outs[i].seconds_per_round / max_time, 3));
    }
    t7.print();
    std::printf("(paper: lambda=10 loses performance ~0.917; lambda=80 costs full "
                "time/iteration)\n\n");
    args.maybe_save(t7, "table7_lambda");
  }

  // --- Table 8: elimination ratio rho ----------------------------------------
  {
    std::vector<double> rhos = {0.75, 0.5, 0.25};
    std::vector<Outcome> outs;
    for (double r : rhos) outs.push_back(run(args, trials, 20, r));
    double best_perf = 0, max_time = 0;
    for (const Outcome& o : outs) {
      best_perf = std::max(best_perf, 1.0 / o.best_ms);
      max_time = std::max(max_time, o.seconds_per_round);
    }
    Table t8("Table 8: elimination ratio rho");
    t8.set_header({"rho", "Normalized Performance", "Normalized Time/Iteration"});
    for (std::size_t i = 0; i < rhos.size(); ++i) {
      t8.add(Table::fmt(rhos[i], 2), Table::fmt((1.0 / outs[i].best_ms) / best_perf, 3),
             Table::fmt(outs[i].seconds_per_round / max_time, 3));
    }
    t8.print();
    std::printf("(paper: rho=0.75 drops to ~0.864; rho=0.25 buys ~1%% for the most "
                "time/iteration)\n");
    args.maybe_save(t8, "table8_rho");
  }
  return 0;
}
