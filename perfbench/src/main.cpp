/// perfbench_tool: the C++ half of the benchmark (run.py drives it).
///
///   perfbench_tool tune    --network N --policy P --trials T --seed S --log PATH
///                          [--trace-out PATH]
///   perfbench_tool setup   --network N --policy P --seed S
///   perfbench_tool calibrate
///   perfbench_tool verify  --network N --logs PATH[,PATH...]
///   perfbench_tool inproc  --shard DIR --nets A[,B] [--publish PATH]
///   perfbench_tool transfer --answers PATH
///   perfbench_tool load    --port N --nets A[,B] --seed S --seconds D
///                          [--jobs SPECS] [--probe-jobs SPECS] [--qps-step-s S]
///                          [--qps-bisect N] [--trace --trace-out PATH]
///
/// Every subcommand prints one JSON object on standard output.

#include <cstdio>
#include <exception>
#include <string>

#include "calibrate.hpp"
#include "common.hpp"

namespace perfbench {
int cmd_tune(const Flags& flags);
int cmd_setup(const Flags& flags);
int cmd_verify(const Flags& flags);
int cmd_inproc(const Flags& flags);
int cmd_transfer(const Flags& flags);
int cmd_load(const Flags& flags);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool tune|setup|calibrate|verify|inproc|transfer|load [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    Flags flags(argc, argv, 2);
    if (cmd == "tune") return cmd_tune(flags);
    if (cmd == "setup") return cmd_setup(flags);
    if (cmd == "calibrate") {
      harl::json::Value out = harl::json::Value::object();
      out.set("cal_s", num(calibrate_s()));
      return print_json(out) ? 0 : 1;
    }
    if (cmd == "verify") return cmd_verify(flags);
    if (cmd == "inproc") return cmd_inproc(flags);
    if (cmd == "transfer") return cmd_transfer(flags);
    if (cmd == "load") return cmd_load(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
