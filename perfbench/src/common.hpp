#pragma once

/// Shared helpers of the benchmark tool: flag parsing, the query key mix,
/// percentiles and JSON output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/harl.hpp"

namespace perfbench {

/// `--name value` flags after the subcommand (a flag with no value reads
/// "1").  A required flag that is missing is an error.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key.substr(2)] = argv[++i];
      } else {
        values_[key.substr(2)] = "1";
      }
    }
  }
  bool has(const std::string& k) const { return values_.count(k) > 0; }
  std::string str(const std::string& k) const {
    auto it = values_.find(k);
    if (it == values_.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  std::string str(const std::string& k, const std::string& fallback) const {
    return has(k) ? str(k) : fallback;
  }
  std::int64_t i64(const std::string& k) const { return std::stoll(str(k)); }
  std::uint64_t u64(const std::string& k) const { return std::stoull(str(k)); }
  double f64(const std::string& k) const { return std::stod(str(k)); }

 private:
  std::map<std::string, std::string> values_;
};

inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    if (next > pos) out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

/// One query key of the mix and the tier the mix expects it to reach.
struct QueryKey {
  std::string network;  ///< batch-suffixed name, e.g. "bert_b1"
  std::string task;
  int expect = 1;       ///< 1: tuned (L1), 2: sibling batch (L2), 3: untuned (L3)
};

/// Batch size of the L2 siblings: the same operators at another batch, so
/// structural transfer applies but no exact entry exists.
inline constexpr int kSiblingBatch = 4;
/// The untuned network whose tasks exercise golden advice.
inline constexpr const char* kColdNetwork = "mobilenet_v2";

/// The query stream.  Nothing in the repository records real query traffic,
/// so these are assumptions (README.md, "Defaults"): an open-loop offered
/// rate well under the daemon's capacity (13000 to 59000 queries/s here,
/// depending on the machine's load), high enough that a connection's
/// thread rarely sleeps long enough for the virtual machine's slow,
/// drifting wake-up from idle to set the round trip; a fixed number of
/// connections; and a mix that mostly hits tuned keys and sends a tenth
/// each to transfer and golden advice.
inline constexpr double kQueryRate = 8000;   ///< queries per second
inline constexpr int kQueryConns = 2;
inline constexpr double kL1Share = 0.8;      ///< of the mix; kL2Share more go
inline constexpr double kL2Share = 0.1;      ///< to L2 keys, the rest to L3
/// The round-trip p99 a sustainable rate (`query.qps`) is held to; it sits
/// well above the machine's scheduling stalls, so only a growing backlog
/// exceeds it.
inline constexpr double kP99LimitUs = 25000;

/// Every key the mix can draw for the given tuned base networks, in a fixed
/// order: their batch-1 tasks, their sibling-batch tasks, then the cold
/// network's tasks.
inline std::vector<QueryKey> key_universe(const std::vector<std::string>& tuned) {
  std::vector<QueryKey> keys;
  for (int tier = 1; tier <= 3; ++tier) {
    std::vector<std::string> bases =
        tier == 3 ? std::vector<std::string>{kColdNetwork} : tuned;
    for (const std::string& base : bases) {
      harl::Network net = harl::make_network(base, tier == 2 ? kSiblingBatch : 1);
      for (const harl::Subgraph& g : net.subgraphs) {
        keys.push_back({net.name, g.name(), tier});
      }
    }
  }
  return keys;
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); NaN when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// JSON number that stays valid for non-finite values (null).
inline harl::json::Value num(double v) {
  return std::isfinite(v) ? harl::json::Value::number(v) : harl::json::Value::null();
}
inline harl::json::Value num(std::int64_t v) { return harl::json::Value::number(v); }

/// Exact bits of a double, so run.py can compare results bit for bit.
inline std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

/// Prints `v` as the subcommand's one line of output.
inline bool print_json(const harl::json::Value& v) {
  std::string text = v.dump();
  text += '\n';
  bool ok = std::fwrite(text.data(), 1, text.size(), stdout) == text.size();
  return std::fflush(stdout) == 0 && ok;
}

}  // namespace perfbench
