/// harl_tune — command-line auto-tuner over the library's workload zoo.
///
///   example_harl_tune [--workload NAME] [--policy NAME] [--trials N]
///                     [--hw cpu|gpu] [--batch N] [--seed S] [--paper]
///                     [--loop-nest]
///
/// Workloads: any network name (bert, resnet50, mobilenet_v2), any Table 6
/// suite name (GEMM-S ... T2D; tunes the suite's headline config), or
/// "gemm:MxKxN" for an ad-hoc matmul.
///
///   example_harl_tune --workload gemm:1024x1024x1024 --trials 400
///   example_harl_tune --workload bert --policy Ansor --trials 800
///   example_harl_tune --workload C2D --hw gpu --loop-nest
///
/// --policy takes any PolicyRegistry name, case-insensitively (HARL,
/// Hierarchical-RL, Ansor, Flextensor, AutoTVM-SA, Random).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/harl.hpp"
#include "sched/loop_nest.hpp"

using namespace harl;

namespace {

std::optional<Network> parse_workload(const std::string& name, std::int64_t batch) {
  for (const std::string& net : network_names()) {
    if (name == net) return make_network(name, batch);
  }
  for (const std::string& suite : table6_suite_names()) {
    if (name == suite) {
      Network net;
      net.name = suite;
      net.subgraphs.push_back(table6_suite(suite, batch)[0].graph);
      return net;
    }
  }
  if (name.rfind("gemm:", 0) == 0) {
    std::int64_t m = 0, k = 0, n = 0;
    if (std::sscanf(name.c_str() + 5, "%ldx%ldx%ld", &m, &k, &n) == 3 && m > 0 &&
        k > 0 && n > 0) {
      Network net;
      net.name = name;
      net.subgraphs.push_back(make_gemm(m, k, n, batch));
      return net;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "gemm:512x512x512";
  std::string policy_name = "HARL";
  std::string hw_name = "cpu";
  std::int64_t trials = 300;
  std::int64_t batch = 1;
  std::uint64_t seed = 42;
  bool paper = false;
  bool show_loop_nest = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) workload = next("--workload");
    else if (!std::strcmp(argv[i], "--policy")) policy_name = next("--policy");
    else if (!std::strcmp(argv[i], "--trials")) trials = std::atoll(next("--trials"));
    else if (!std::strcmp(argv[i], "--hw")) hw_name = next("--hw");
    else if (!std::strcmp(argv[i], "--batch")) batch = std::atoll(next("--batch"));
    else if (!std::strcmp(argv[i], "--seed")) seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--paper")) paper = true;
    else if (!std::strcmp(argv[i], "--loop-nest")) show_loop_nest = true;
    else {
      std::printf(
          "usage: %s [--workload NAME] [--policy NAME]\n"
          "          [--trials N] [--hw cpu|gpu] [--batch N] [--seed S] "
          "[--paper] [--loop-nest]\n",
          argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  if (!PolicyRegistry::instance().contains(policy_name)) {
    std::fprintf(stderr, "unknown policy \"%s\"; registered policies:\n",
                 policy_name.c_str());
    for (const std::string& n : PolicyRegistry::instance().names()) {
      std::fprintf(stderr, "  %s\n", n.c_str());
    }
    return 2;
  }
  std::optional<Network> net = parse_workload(workload, batch);
  if (!net) {
    std::fprintf(stderr, "unknown workload '%s' (networks: bert resnet50 "
                         "mobilenet_v2; suites: GEMM-S..T2D; or gemm:MxKxN)\n",
                 workload.c_str());
    return 2;
  }
  HardwareConfig hw =
      hw_name == "gpu" ? HardwareConfig::rtx3090() : HardwareConfig::xeon_6226r();
  SearchOptions opts =
      paper ? paper_options(policy_name, seed) : quick_options(policy_name, seed);

  std::printf("tuning %s on %s with %s, %lld trials...\n\n", net->name.c_str(),
              hw.name.c_str(), policy_name.c_str(), (long long)trials);
  TuningSession session(std::move(*net), hw, opts);
  session.run(trials);

  std::printf("%s", render_session_report(session).c_str());
  if (show_loop_nest) {
    for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
      const TaskState& t = session.scheduler().task(i);
      if (t.has_best()) {
        std::printf("\n%s",
                    render_loop_nest(t.best_schedule(), hw.unroll_depths).c_str());
      }
    }
  }
  return 0;
}
