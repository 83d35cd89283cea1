/// Measurement-economy benchmark + acceptance gate: does the value-guided
/// beam + adaptive-sampling trial filter reach the experience warm path's
/// target quality in far fewer simulator invocations?
///
/// Per policy (HARL and AutoTVM-SA; Ansor's oversampled-init variant of the
/// hook is exercised by the unit tests instead, its cold best being too close
/// to the search optimum for a trials-to-target gate) on one Table 6
/// workload:
///   1. cold   — tune with a cold cost model; the final best is the target
///               quality (the same target bench_experience's warm path is
///               gated on),
///   2. log    — two donor runs (different seeds/policies) tune the workload
///               with record logging on,
///   3. fold   — the donor logs are harvested twice: `pretrain` gives the
///               experience model, `pretrain_value` gives the
///               partial-schedule value head; both are saved and loaded back,
///   4. check  — the loaded value model must predict bit-identically to the
///               in-memory one on fuzzed prefix rows (exit 5),
///   5. warm   — the cold run repeats with the experience model (the
///               bench_experience warm path; its trials-to-target is the
///               baseline invocation count),
///   6. guided — the warm run repeats with the value guide armed on top
///               (beam pruning + sampling filter); same seed, same budget.
///
/// Gate (exit 1): for every policy the guided run must reach the cold best
/// in at most 75% of the warm run's simulator invocations — i.e. >= 25%
/// fewer — with a final best no worse than the cold run's.
///
/// Determinism gates (exit 6), both with the guide fully armed:
///   - serial-vs-parallel: 1-thread and 4-thread pools produce bit-identical
///     round logs and final latency,
///   - crash-resume: replaying a guided run's full record log into a fresh
///     session reproduces the same best, and `verify_resume` finds no drift.
///
/// Emits BENCH_value_guide.json.
/// Flags: --trials N --seed S --paper --csv DIR (see bench_common.hpp).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace harl;

struct PolicyResult {
  std::string policy;
  double cold_best = 0;
  std::int64_t warm_ttr = -1;    ///< warm trials to reach the cold best
  std::int64_t guided_ttr = -1;  ///< guided trials to reach the cold best
  double guided_best = 0;
  std::int64_t credited = 0;     ///< candidates credited without measurement
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

/// Bit-compare the saved+loaded value model on fuzzed prefix rows at every
/// depth (the save/load acceptance check, over the *prefix* feature width).
bool verify_value_roundtrip(const Gbdt& model, const Gbdt& loaded,
                            const Subgraph& graph, const HardwareConfig& hw,
                            std::uint64_t seed) {
  std::vector<Sketch> sketches = generate_sketches(graph);
  FeatureExtractor fx(&hw);
  Rng rng(seed);
  constexpr std::size_t kFuzz = 256;
  constexpr std::size_t kW = FeatureExtractor::kNumPrefixFeatures;
  std::vector<double> rows(kFuzz * kW);
  for (std::size_t i = 0; i < kFuzz; ++i) {
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
    int depth = 1 + static_cast<int>(rng.pick_index(
                        static_cast<std::size_t>(graph.num_stages())));
    fx.extract_prefix_into(s, depth, &rows[i * kW]);
  }
  std::vector<double> a(kFuzz), b(kFuzz);
  model.predict_batch(rows.data(), kFuzz, a.data());
  loaded.predict_batch(rows.data(), kFuzz, b.data());
  for (std::size_t i = 0; i < kFuzz; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::int64_t total_credited(const TuningSession& session) {
  std::int64_t n = 0;
  for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
    n += session.scheduler().task(i).credited_candidates();
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchArgs;
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : 240;

  const std::string dir = "bench_value_guide_logs";
  ::mkdir(dir.c_str(), 0755);

  HardwareConfig hw = HardwareConfig::xeon_6226r();
  OperatorCase oc = table6_suite("GEMM-M", 1).front();
  const Subgraph* graph = &oc.graph;
  TaskResolver resolver = [graph](const std::string&,
                                  const std::string& task) -> const Subgraph* {
    return task == graph->name() ? graph : nullptr;
  };

  // Donor logs + both offline models, shared by every policy's guided run.
  std::string log_a = donor_run(oc.graph, hw, "HARL",
                                args.seed + 101, trials, dir, "donor_a");
  std::string log_b = donor_run(oc.graph, hw, "Ansor",
                                args.seed + 202, trials, dir, "donor_b");
  ExperienceStore store;
  store.add_log(log_a);
  store.add_log(log_b);
  GbdtConfig gcfg;
  gcfg.seed = args.seed + 7;
  HarvestStats xstats, vstats;
  Gbdt xmodel = store.pretrain(hw, gcfg, resolver, &xstats);
  Gbdt vmodel = store.pretrain_value(hw, gcfg, resolver, &vstats);
  if (!xmodel.trained() || !vmodel.trained()) {
    std::fprintf(stderr, "FAIL: harvest produced no trainable rows\n");
    return 2;
  }
  std::string xpath = dir + "/experience_model.json";
  std::string vpath = dir + "/value_model.json";
  std::string error;
  if (!save_gbdt(xmodel, xpath, &error) || !save_gbdt(vmodel, vpath, &error)) {
    std::fprintf(stderr, "save_gbdt: %s\n", error.c_str());
    return 2;
  }
  Gbdt vloaded;
  if (!load_gbdt(vpath, &vloaded, &error)) {
    std::fprintf(stderr, "load_gbdt: %s\n", error.c_str());
    return 2;
  }
  bool roundtrip_ok =
      verify_value_roundtrip(vmodel, vloaded, oc.graph, hw, args.seed + 13);
  if (!roundtrip_ok) {
    std::fprintf(stderr, "FAIL: loaded value model predictions diverge\n");
  }

  // Per-policy beam widths: HARL prunes its 32-track episode to 24; AutoTVM
  // keeps all 32 walkers (beam = walker count) and economizes through the
  // trial filter alone.
  auto guided_options = [&](const std::string& policy) {
    SearchOptions opts = quick_options(policy, args.seed);
    opts.experience_model = xpath;
    opts.value_guide.enabled = true;
    opts.value_guide.model_path = vpath;
    opts.value_guide.beam_width = policy == "HARL" ? 24 : 32;
    opts.value_guide.sample_clusters = 8;
    return opts;
  };

  std::vector<std::string> policies = {"HARL", "AutoTVM-SA"};
  std::vector<PolicyResult> results;
  for (const std::string& policy : policies) {
    PolicyResult r;
    r.policy = policy;

    // 1. cold baseline: its final best is the target quality.
    SearchOptions cold_opts = quick_options(policy, args.seed);
    TuningSession cold(oc.graph, hw, cold_opts);
    cold.run(trials);
    r.cold_best = cold.task_best_ms(0);

    // 5. warm path (bench_experience's gate subject): experience model only.
    SearchOptions warm_opts = cold_opts;
    warm_opts.experience_model = xpath;
    TuningSession warm(oc.graph, hw, warm_opts);
    warm.run(trials);
    r.warm_ttr = trials_to_reach(warm.scheduler().task(0).curve(), r.cold_best);

    // 6. guided: warm + value beam + sampling filter, same seed and budget.
    TuningSession guided(oc.graph, hw, guided_options(policy));
    guided.run(trials);
    r.guided_best = guided.task_best_ms(0);
    r.guided_ttr =
        trials_to_reach(guided.scheduler().task(0).curve(), r.cold_best);
    r.credited = total_credited(guided);

    // >= 25% fewer simulator invocations to the same target, no quality loss.
    r.pass = r.warm_ttr > 0 && r.guided_ttr >= 0 &&
             4 * r.guided_ttr <= 3 * r.warm_ttr && r.guided_best <= r.cold_best;
    results.push_back(r);
  }

  // Determinism gate A: guided serial-vs-parallel bit-identity.
  auto guided_run = [&](ThreadPool* pool) {
    SearchOptions opts = guided_options("HARL");
    opts.pool = pool;
    TuningSession session(oc.graph, hw, opts);
    session.run(trials);
    return std::make_pair(session.scheduler().round_log(),
                          session.latency_ms());
  };
  ThreadPool serial(1), wide(4);
  auto [log_serial, lat_serial] = guided_run(&serial);
  auto [log_wide, lat_wide] = guided_run(&wide);
  bool parallel_ok =
      lat_serial == lat_wide && log_serial.size() == log_wide.size();
  if (parallel_ok) {
    for (std::size_t i = 0; i < log_serial.size(); ++i) {
      parallel_ok = parallel_ok &&
                    log_serial[i].task == log_wide[i].task &&
                    log_serial[i].trials_after == log_wide[i].trials_after &&
                    log_serial[i].net_latency_ms == log_wide[i].net_latency_ms;
    }
  }
  if (!parallel_ok) {
    std::fprintf(stderr,
                 "FAIL: guided run diverges between 1- and 4-thread pools\n");
  }

  // Determinism gate B: guided crash-resume bit-identity from a full log.
  bool resume_ok = true;
  {
    std::string glog = dir + "/guided.jsonl";
    std::remove(glog.c_str());
    SearchOptions opts = guided_options("HARL");
    TuningSession full(oc.graph, hw, opts);
    RecordLogger logger;
    if (!logger.open(glog, /*append=*/false)) {
      std::fprintf(stderr, "cannot open %s\n", glog.c_str());
      return 2;
    }
    full.add_callback(&logger);
    full.run(trials);
    logger.close();

    std::vector<TuningRecord> records = read_records(glog);
    TuningSession resumed(oc.graph, hw, opts);
    VerifyResumeReport report = verify_resume(resumed, records);
    ResumeStats stats = resume_session(resumed, records);
    resumed.run(trials);
    resume_ok = report.ok() && stats.records_matched > 0 &&
                resumed.latency_ms() == full.latency_ms();
    if (!resume_ok) {
      std::fprintf(stderr,
                   "FAIL: guided resume drifted (matched=%zu, mismatches=%zu, "
                   "%.17g vs %.17g ms)\n",
                   stats.records_matched, report.mismatches.size(),
                   resumed.latency_ms(), full.latency_ms());
    }
  }

  Table table("value guide: simulator invocations to reach the cold best");
  table.set_header({"policy", "cold best ms", "warm trials", "guided trials",
                    "guided best ms", "credited", "verdict"});
  bool all_pass = true;
  for (const PolicyResult& r : results) {
    table.add(r.policy, Table::fmt(r.cold_best, 4), r.warm_ttr, r.guided_ttr,
              Table::fmt(r.guided_best, 4), r.credited,
              r.pass ? ">=25% fewer" : "no gain");
    all_pass = all_pass && r.pass;
  }
  table.print();
  args.maybe_save(table, "value_guide");

  std::FILE* json = std::fopen("BENCH_value_guide.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"trials\":%lld,\"seed\":%llu,\"value_rows\":%zu,"
                 "\"policies\":[",
                 static_cast<long long>(trials),
                 static_cast<unsigned long long>(args.seed), vstats.rows);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const PolicyResult& r = results[i];
      std::fprintf(json,
                   "%s{\"policy\":\"%s\",\"cold_best_ms\":%.17g,"
                   "\"warm_trials\":%lld,\"guided_trials\":%lld,"
                   "\"guided_best_ms\":%.17g,\"credited\":%lld,\"pass\":%s}",
                   i == 0 ? "" : ",", r.policy.c_str(), r.cold_best,
                   static_cast<long long>(r.warm_ttr),
                   static_cast<long long>(r.guided_ttr), r.guided_best,
                   static_cast<long long>(r.credited),
                   r.pass ? "true" : "false");
    }
    std::fprintf(json,
                 "],\"roundtrip_bit_identical\":%s,"
                 "\"serial_parallel_identical\":%s,\"resume_identical\":%s,"
                 "\"gate_pass\":%s}\n",
                 roundtrip_ok ? "true" : "false",
                 parallel_ok ? "true" : "false", resume_ok ? "true" : "false",
                 all_pass ? "true" : "false");
    std::fclose(json);
  }

  if (!roundtrip_ok) return 5;
  if (!parallel_ok || !resume_ok) return 6;
  if (!all_pass) {
    std::fprintf(stderr,
                 "FAIL: a policy did not reach the cold best in >=25%% fewer "
                 "simulator invocations\n");
    return 1;
  }
  std::printf("\ngate: value-guided search reached the cold best with >=25%% "
              "fewer simulator invocations on %zu/%zu policies\n",
              results.size(), results.size());
  return 0;
}
