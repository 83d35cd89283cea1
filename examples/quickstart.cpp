/// Quickstart: tune a single 512x512x512 GEMM with HARL in ~30 lines.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/example_quickstart

#include <cstdio>

#include "core/harl.hpp"
#include "sched/loop_nest.hpp"

int main() {
  using namespace harl;

  // 1. Describe the workload: one GEMM subgraph (C = A x B).
  Subgraph gemm = make_gemm(/*m=*/512, /*k=*/512, /*n=*/512);

  // 2. Pick a target: the Xeon-6226R-like CPU model the paper evaluates on.
  HardwareConfig cpu = HardwareConfig::xeon_6226r();

  // 3. Tune with HARL (hierarchical RL + adaptive stopping, Table 5 defaults
  //    at laptop scale; use paper_options(...) for the full-size settings).
  TuningSession session(gemm, cpu, quick_options("HARL"));
  session.run(/*trials=*/300);

  // 4. Inspect the result.
  const TaskState& task = session.scheduler().task(0);
  std::printf("best simulated time : %.4f ms\n", task.best_time_ms());
  std::printf("measurement trials  : %lld\n",
              static_cast<long long>(session.measurer().trials_used()));
  std::printf("search wall time    : %.2f s\n", session.wall_seconds());
  std::printf("\nbest schedule:\n%s", task.best_schedule().to_string().c_str());
  std::printf("\nas a loop nest:\n%s",
              render_loop_nest(task.best_schedule(), cpu.unroll_depths).c_str());
  return 0;
}
