/// Knowledge-cache serving benchmark + acceptance gate: are repeat queries
/// answered at memory speed, near-misses at model speed, and is the cache
/// file byte-stable?
///
///   1. search — one cold tuning run on bert_b1/GEMM-I with record logging:
///               the wall time a query pays *without* the cache, and the
///               donor knowledge for it,
///   2. build  — a KnowledgeCache hydrated from the log,
///   3. L1     — the same (network, task, hardware) query repeated: every
///               answer must be the L1 tier and bit-identical to the best
///               log record (the schedule the search found),
///   4. L2     — the structural sibling bert_b2/GEMM-I (2x batch, same
///               signature): must be the L2 tier, adapted to the new shape,
///   5. L3     — a stone-cold conv task: must report golden advice,
///   6. fuzz   — save -> load -> save must reproduce the cache bytes.
///
/// Gates: L1 median > 50us or L2 median > 50ms -> exit 1 (generous absolute
/// ceilings; the medians are orders of magnitude below them on any machine),
/// L1 not >= 1000x faster than the cold search -> exit 1, wrong tier or a
/// non-bit-identical answer -> exit 1, save/load byte drift -> exit 5,
/// setup failure -> exit 2.  Emits BENCH_knowledge_cache.json.
///
/// Flags: --trials N --seed S --paper --csv DIR (see bench_common.hpp).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/knowledge_cache.hpp"

namespace {

using namespace harl;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Median serve latency in microseconds over `reps` repeats (one untimed
/// warmup query builds the per-task sketch context first).
double timed_serve_us(KnowledgeCache& cache, const std::string& network,
                      const Subgraph& graph, const HardwareConfig& hw,
                      int reps, ServeResult* last) {
  *last = cache.serve(network, graph, hw);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    *last = cache.serve(network, graph, hw);
    auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return median(us);
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchArgs;
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : 150;

  HardwareConfig hw = HardwareConfig::xeon_6226r();

  // The served task, its structural sibling (2x batch), and a cold stranger.
  Network bert1 = make_network("bert", 1);
  Network bert2 = make_network("bert", 2);
  Network resnet = make_network("resnet50", 1);
  const Subgraph* gemm1 = nullptr;
  const Subgraph* gemm2 = nullptr;
  for (const Subgraph& g : bert1.subgraphs) {
    if (g.name() == "GEMM-I") gemm1 = &g;
  }
  for (const Subgraph& g : bert2.subgraphs) {
    if (g.name() == "GEMM-I") gemm2 = &g;
  }
  if (gemm1 == nullptr || gemm2 == nullptr || resnet.subgraphs.empty()) {
    std::fprintf(stderr, "workload inventory misses the bench tasks\n");
    return 2;
  }

  // 1. Cold search with record logging: what a query costs without a cache.
  Network one;
  one.name = bert1.name;  // keep the (network, task) provenance of the fleet
  one.subgraphs.push_back(*gemm1);
  SearchOptions opts = quick_options("HARL", args.seed);
  TuningSession session(one, hw, opts);
  RecordLogger logger;
  const std::string log_path = "bench_kcache.jsonl";
  std::remove(log_path.c_str());
  if (!logger.open(log_path, /*append=*/false)) {
    std::fprintf(stderr, "cannot open %s\n", log_path.c_str());
    return 2;
  }
  session.add_callback(&logger);
  auto s0 = std::chrono::steady_clock::now();
  session.run(trials);
  auto s1 = std::chrono::steady_clock::now();
  double search_us = std::chrono::duration<double, std::micro>(s1 - s0).count();

  // 2. Hydrate the cache; the best log record is the bit-identity reference.
  KnowledgeCache cache;
  std::size_t added = cache.insert_log(log_path);
  if (added == 0) {
    std::fprintf(stderr, "the donor run logged no usable records\n");
    return 2;
  }
  std::string best_line;
  double best_time = 0;
  for (const TuningRecord& rec : read_records(log_path)) {
    if (!(rec.time_ms > 0)) continue;
    std::string line = record_to_json(rec);
    if (best_line.empty() || rec.time_ms < best_time ||
        (rec.time_ms == best_time && line < best_line)) {
      best_time = rec.time_ms;
      best_line = std::move(line);
    }
  }

  // 3. L1: repeat query, memory speed, bit-identical to the search's best.
  ServeResult l1;
  double l1_us = timed_serve_us(cache, bert1.name, *gemm1, hw, 512, &l1);
  bool l1_ok = l1.tier == ServeTier::kL1 && record_to_json(l1.record) == best_line;

  // 4. L2: the 2x-batch sibling, adapted at model speed.
  ServeResult l2;
  double l2_us = timed_serve_us(cache, bert2.name, *gemm2, hw, 64, &l2);
  bool l2_ok = l2.tier == ServeTier::kL2 &&
               validate_schedule(l2.schedule, hw.num_unroll_options()).empty();

  // 5. L3: a structure the cache has never seen.
  ServeResult l3 = cache.serve(resnet.name, resnet.subgraphs.front(), hw);
  bool l3_ok = l3.tier == ServeTier::kL3;

  // 6. Byte-stability fuzz: save -> load -> save reproduces the bytes.
  std::string bytes = cache_to_json(cache);
  KnowledgeCache reloaded;
  std::string error;
  bool roundtrip_ok = cache_from_json(bytes, &reloaded, &error) &&
                      cache_to_json(reloaded) == bytes &&
                      cache_fingerprint(reloaded) == cache_fingerprint(cache);
  if (!roundtrip_ok && !error.empty()) {
    std::fprintf(stderr, "cache roundtrip: %s\n", error.c_str());
  }

  double speedup = l1_us > 0 ? search_us / l1_us : 0;
  bool l1_fast = l1_us <= 50.0;          // 50us ceiling (generous)
  bool l2_fast = l2_us <= 50.0 * 1000;   // 50ms ceiling (generous)
  bool fast_enough = speedup >= 1000.0;

  Table table("knowledge-cache serving latency");
  table.set_header({"path", "median", "tier", "verdict"});
  table.add("cold search", Table::fmt(search_us / 1e6, 3) + " s", "-", "baseline");
  table.add("L1 repeat query", Table::fmt(l1_us, 2) + " us",
            serve_tier_name(l1.tier),
            l1_ok ? (l1_fast ? "bit-identical" : "TOO SLOW") : "WRONG ANSWER");
  table.add("L2 sibling query", Table::fmt(l2_us / 1000, 3) + " ms",
            serve_tier_name(l2.tier),
            l2_ok ? (l2_fast ? "adapted" : "TOO SLOW") : "WRONG ANSWER");
  table.add("L3 cold task", "-", serve_tier_name(l3.tier),
            l3_ok ? "golden advice" : "WRONG TIER");
  table.add("L1 vs search", Table::fmt(speedup, 0) + "x", "-",
            fast_enough ? ">= 1000x" : "BELOW 1000x");
  table.print();
  args.maybe_save(table, "knowledge_cache");

  std::FILE* json = std::fopen("BENCH_knowledge_cache.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\"trials\":%lld,\"seed\":%llu,\"search_us\":%.17g,"
        "\"l1_median_us\":%.17g,\"l2_median_us\":%.17g,\"speedup\":%.17g,"
        "\"l1_tier\":\"%s\",\"l2_tier\":\"%s\",\"l3_tier\":\"%s\","
        "\"l1_bit_identical\":%s,\"roundtrip_bit_identical\":%s,"
        "\"gate_pass\":%s}\n",
        static_cast<long long>(trials),
        static_cast<unsigned long long>(args.seed), search_us, l1_us, l2_us,
        speedup, serve_tier_name(l1.tier), serve_tier_name(l2.tier),
        serve_tier_name(l3.tier), l1_ok ? "true" : "false",
        roundtrip_ok ? "true" : "false",
        (l1_ok && l2_ok && l3_ok && l1_fast && l2_fast && fast_enough &&
         roundtrip_ok)
            ? "true"
            : "false");
    std::fclose(json);
  }

  if (!roundtrip_ok) {
    std::fprintf(stderr, "FAIL: cache save/load is not byte-stable\n");
    return 5;
  }
  if (!l1_ok || !l2_ok || !l3_ok) {
    std::fprintf(stderr, "FAIL: a tier served the wrong answer\n");
    return 1;
  }
  if (!l1_fast || !l2_fast || !fast_enough) {
    std::fprintf(stderr,
                 "FAIL: latency gate (L1 %.2f us <= 50 us: %s, L2 %.2f ms <= "
                 "50 ms: %s, speedup %.0fx >= 1000x: %s)\n",
                 l1_us, l1_fast ? "yes" : "NO", l2_us / 1000,
                 l2_fast ? "yes" : "NO", speedup, fast_enough ? "yes" : "NO");
    return 1;
  }
  std::printf("\ngate: L1 %.2f us (%.0fx faster than the %.2f s search), "
              "L2 %.3f ms, all tiers correct, bytes stable\n",
              l1_us, speedup, search_us / 1e6, l2_us / 1000);
  return 0;
}
