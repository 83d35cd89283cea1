/// Experience subsystem benchmark + acceptance gate: does a pre-trained cost
/// model make search reach the same quality in fewer simulator invocations?
///
/// Per workload (two Table 6 operator cases):
///   1. cold   — tune with a cold cost model; record the final best and the
///               trial count at which it was reached,
///   2. log    — two *donor* runs (different seeds/policies) tune the same
///               workload with record logging on,
///   3. fold   — the donor logs are compacted (`compact_records`) and
///               harvested together with their uncompacted originals (the
///               dedup contract makes the overlap a no-op), a GBDT is
///               pre-trained offline, saved, and loaded back,
///   4. check  — the loaded model must predict bit-identically to the
///               in-memory model on a fuzzed schedule batch (exit 5),
///   5. warm   — the cold run repeats with the loaded model as pretrained
///               prior; same seed, same trial budget.
///
/// Gate (exit 1): at least one workload must reach the cold run's final best
/// in strictly fewer simulator invocations, with a final best no worse than
/// the cold run's.  Emits BENCH_experience.json.
///
/// Flags: --trials N --seed S --paper --csv DIR (see bench_common.hpp).

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace harl;

struct WorkloadResult {
  std::string name;
  double cold_best = 0;
  std::int64_t cold_ttr = -1;   ///< trials the cold run took to its final best
  double warm_best = 0;
  std::int64_t warm_ttr = -1;   ///< trials the warm run took to the cold best
  std::size_t harvested_rows = 0;
  bool pass = false;
};

/// One donor run with record logging; returns the log path.
std::string donor_run(const Subgraph& graph, const HardwareConfig& hw,
                      const std::string& policy, std::uint64_t seed, std::int64_t trials,
                      const std::string& dir, const std::string& stem) {
  SearchOptions opts = quick_options(policy, seed);
  TuningSession session(graph, hw, opts);
  RecordLogger logger;
  std::string path = dir + "/" + stem + ".jsonl";
  std::remove(path.c_str());
  if (!logger.open(path, /*append=*/false)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  session.add_callback(&logger);
  session.run(trials);
  return path;
}

/// Bit-compare the saved+loaded model against the in-memory one on random
/// schedules of the workload (the save/load acceptance check).
bool verify_model_roundtrip(const Gbdt& model, const Gbdt& loaded,
                            const Subgraph& graph, const HardwareConfig& hw,
                            std::uint64_t seed) {
  std::vector<Sketch> sketches = generate_sketches(graph);
  FeatureExtractor fx(&hw);
  Rng rng(seed);
  constexpr std::size_t kFuzz = 256;
  std::vector<double> rows(kFuzz * FeatureExtractor::kNumFeatures);
  for (std::size_t i = 0; i < kFuzz; ++i) {
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
    fx.extract_into(s, &rows[i * FeatureExtractor::kNumFeatures]);
  }
  std::vector<double> a(kFuzz), b(kFuzz);
  model.predict_batch(rows.data(), kFuzz, a.data());
  loaded.predict_batch(rows.data(), kFuzz, b.data());
  for (std::size_t i = 0; i < kFuzz; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchArgs;
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : 240;

  const std::string dir = "bench_experience_logs";
  ::mkdir(dir.c_str(), 0755);

  HardwareConfig hw = HardwareConfig::xeon_6226r();

  std::vector<OperatorCase> cases;
  cases.push_back(table6_suite("GEMM-M", 1).front());
  cases.push_back(table6_suite("C1D", 1).front());

  std::vector<WorkloadResult> results;
  bool roundtrip_ok = true;

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const OperatorCase& oc = cases[c];
    WorkloadResult r;
    r.name = oc.suite + " " + oc.config;

    // 1. cold baseline.
    SearchOptions cold_opts = quick_options("HARL", args.seed);
    TuningSession cold(oc.graph, hw, cold_opts);
    cold.run(trials);
    r.cold_best = cold.task_best_ms(0);
    r.cold_ttr =
        trials_to_reach(cold.scheduler().task(0).curve(), r.cold_best);

    // 2. donor logs: two different seeds, two different policies — the
    // mixed-provenance case the harvester is specified for.
    std::string stem = "donor_" + std::to_string(c);
    std::string log_a = donor_run(oc.graph, hw, "HARL",
                                  args.seed + 101, trials, dir, stem + "_a");
    std::string log_b = donor_run(oc.graph, hw, "Ansor",
                                  args.seed + 202, trials, dir, stem + "_b");

    // 3. compact + harvest (originals and compactions together: the dedup
    // contract makes the overlap a no-op, proving compacted logs feed the
    // same harvest).
    std::string compact_a = dir + "/" + stem + "_a_compact.jsonl";
    CompactOptions copts;
    if (!compact_log(log_a, compact_a, copts)) {
      std::fprintf(stderr, "compact_log failed for %s\n", log_a.c_str());
      return 2;
    }
    ExperienceStore store;
    store.add_log(log_a);
    store.add_log(compact_a);
    store.add_log(log_b);
    GbdtConfig gcfg;
    gcfg.seed = args.seed + 7;
    HarvestStats hstats;
    // Single-operator workloads are not in the shipped network inventory, so
    // resolve them directly (the builtin resolver covers bert/resnet/...).
    const Subgraph* graph = &oc.graph;
    TaskResolver resolver = [graph](const std::string&,
                                    const std::string& task) -> const Subgraph* {
      return task == graph->name() ? graph : nullptr;
    };
    Gbdt model = store.pretrain(hw, gcfg, resolver, &hstats);
    r.harvested_rows = hstats.rows;
    if (!model.trained()) {
      std::fprintf(stderr, "FAIL: harvest produced no trainable rows for %s\n",
                   r.name.c_str());
      return 2;
    }

    // 4. save -> load -> bit-identity fuzz.
    std::string model_path = dir + "/" + stem + "_model.json";
    std::string error;
    if (!save_gbdt(model, model_path, &error)) {
      std::fprintf(stderr, "save_gbdt: %s\n", error.c_str());
      return 2;
    }
    Gbdt loaded;
    if (!load_gbdt(model_path, &loaded, &error)) {
      std::fprintf(stderr, "load_gbdt: %s\n", error.c_str());
      return 2;
    }
    if (!verify_model_roundtrip(model, loaded, oc.graph, hw, args.seed + 13)) {
      std::fprintf(stderr, "FAIL: loaded model predictions diverge (%s)\n",
                   model_path.c_str());
      roundtrip_ok = false;
    }

    // 5. warm run: same seed and budget as cold, pretrained prior on.
    SearchOptions warm_opts = cold_opts;
    warm_opts.experience_model = model_path;
    TuningSession warm(oc.graph, hw, warm_opts);
    warm.run(trials);
    r.warm_best = warm.task_best_ms(0);
    r.warm_ttr = trials_to_reach(warm.scheduler().task(0).curve(), r.cold_best);

    r.pass = r.warm_ttr >= 0 && r.warm_ttr < r.cold_ttr &&
             r.warm_best <= r.cold_best;
    results.push_back(r);
  }

  Table table("experience warm start: trials to reach the cold run's best");
  table.set_header({"workload", "rows", "cold best ms", "cold trials",
                    "warm trials", "warm best ms", "verdict"});
  bool any_pass = false;
  for (const WorkloadResult& r : results) {
    table.add(r.name, r.harvested_rows, Table::fmt(r.cold_best, 4), r.cold_ttr,
              r.warm_ttr, Table::fmt(r.warm_best, 4),
              r.pass ? "faster" : "no gain");
    any_pass = any_pass || r.pass;
  }
  table.print();
  args.maybe_save(table, "experience");

  std::FILE* json = std::fopen("BENCH_experience.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\"trials\":%lld,\"seed\":%llu,\"workloads\":[",
                 static_cast<long long>(trials),
                 static_cast<unsigned long long>(args.seed));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      std::fprintf(json,
                   "%s{\"name\":\"%s\",\"rows\":%zu,\"cold_best_ms\":%.17g,"
                   "\"cold_trials\":%lld,\"warm_trials\":%lld,"
                   "\"warm_best_ms\":%.17g,\"pass\":%s}",
                   i == 0 ? "" : ",", r.name.c_str(), r.harvested_rows,
                   r.cold_best, static_cast<long long>(r.cold_ttr),
                   static_cast<long long>(r.warm_ttr), r.warm_best,
                   r.pass ? "true" : "false");
    }
    std::fprintf(json, "],\"roundtrip_bit_identical\":%s,\"gate_pass\":%s}\n",
                 roundtrip_ok ? "true" : "false", any_pass ? "true" : "false");
    std::fclose(json);
  }

  if (!roundtrip_ok) return 5;
  if (!any_pass) {
    std::fprintf(stderr,
                 "FAIL: no workload reached the cold best in fewer trials\n");
    return 1;
  }
  std::printf("\ngate: warm start reached the cold best in fewer simulator "
              "invocations on %d/%zu workloads\n",
              static_cast<int>(std::count_if(results.begin(), results.end(),
                                             [](const WorkloadResult& r) {
                                               return r.pass;
                                             })),
              results.size());
  return 0;
}
