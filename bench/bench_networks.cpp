/// Reproduces Figures 8 and 9: end-to-end neural network optimization on
/// BERT, ResNet-50 and MobileNet-V2, on the CPU and GPU hardware models, at
/// batch sizes 1 and 16 — normalized inference performance (Fig. 8) and
/// normalized search time (Fig. 9) for Ansor vs HARL.
///
/// Shape expected from the paper: HARL improves end-to-end performance by
/// ~8% (CPU) / ~9% (GPU) and cuts search time by up to 55% / 51%.
///
/// Flags beyond the common set:
///   --nets a,b     comma-separated subset of {bert,resnet50,mobilenet_v2}
///   --batches a,b  subset of {1,16}

#include "bench_common.hpp"

#include <cstring>
#include <sstream>

using namespace harl;
using namespace harl::bench;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::vector<std::string> nets = network_names();
  std::vector<std::int64_t> batches = {1, 16};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nets") == 0 && i + 1 < argc) {
      nets = split_csv(argv[++i]);
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches.clear();
      for (const std::string& b : split_csv(argv[++i])) batches.push_back(std::atoll(b.c_str()));
    }
  }
  // The paper uses 12k-22k trials; the scaled default keeps the multi-task
  // dynamics (warmup + dozens of allocation decisions) at bench runtimes.
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 4000 : 700);

  std::printf("Figures 8 & 9: end-to-end network optimization (%lld trials/run, %s preset)\n\n",
              (long long)trials, args.paper ? "paper" : "quick");

  struct Platform {
    const char* suffix;
    HardwareConfig hw;
  };
  std::vector<Platform> platforms = {{"", HardwareConfig::xeon_6226r()},
                                     {"(G)", HardwareConfig::rtx3090()}};

  for (std::int64_t batch : batches) {
    Table perf("Figure 8: normalized performance, batch=" + std::to_string(batch));
    perf.set_header({"network", "Ansor", "HARL", "HARL latency ms", "Ansor latency ms"});
    Table stime("Figure 9: normalized search time, batch=" + std::to_string(batch));
    stime.set_header({"network", "Ansor", "HARL", "HARL trials to reach Ansor-best"});

    for (const Platform& plat : platforms) {
      for (const std::string& name : nets) {
        double lat[2] = {0, 0};
        std::vector<TaskScheduler::RoundLog> harl_log;
        const char* kinds[2] = {"Ansor", "HARL"};
        for (int k = 0; k < 2; ++k) {
          TuningSession session(make_network(name, batch), plat.hw,
                                args.options(kinds[k]));
          session.run(trials);
          lat[k] = session.latency_ms();
          if (k == 1) harl_log = session.scheduler().round_log();
        }
        double best = std::min(lat[0], lat[1]);
        std::string label = name + plat.suffix;
        perf.add(label, Table::fmt(normalized_perf(lat[0], best), 3),
                 Table::fmt(normalized_perf(lat[1], best), 3), Table::fmt(lat[1], 3),
                 Table::fmt(lat[0], 3));

        // Search time: first trial count at which HARL's estimated latency
        // reaches Ansor's final latency.
        std::int64_t reach = trials;
        for (const auto& r : harl_log) {
          if (std::isfinite(r.net_latency_ms) && r.net_latency_ms <= lat[0]) {
            reach = r.trials_after;
            break;
          }
        }
        stime.add(label, "1.000",
                  Table::fmt(static_cast<double>(reach) / static_cast<double>(trials), 3),
                  std::to_string(reach) + "/" + std::to_string(trials));
      }
    }
    perf.print();
    std::printf("\n");
    stime.print();
    std::printf("\n");
    args.maybe_save(perf, "fig8_batch" + std::to_string(batch));
    args.maybe_save(stime, "fig9_batch" + std::to_string(batch));
  }
  return 0;
}
