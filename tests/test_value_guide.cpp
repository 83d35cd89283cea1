#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/gbdt_io.hpp"
#include "exp/experience.hpp"
#include "features/feature_extractor.hpp"
#include "io/record_io.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "search/value_guide.hpp"
#include "util/thread_pool.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

// ---- prefix schedules & fingerprints -------------------------------------

struct PrefixFixture : ::testing::Test {
  // GEMM + fused activation: two stages, so prefixes are proper subsets.
  PrefixFixture()
      : graph(make_gemm_act(64, 64, 64)),
        hw(HardwareConfig::xeon_6226r()),
        sketches(generate_sketches(graph)) {}

  Schedule sample(std::uint64_t seed) {
    Rng rng(seed);
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    return random_schedule(sk, hw.num_unroll_options(), rng);
  }

  Subgraph graph;
  HardwareConfig hw;
  std::vector<Sketch> sketches;
};

TEST_F(PrefixFixture, PrefixScheduleIsValidAtEveryDepth) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Schedule full = sample(seed);
    for (int d = 0; d <= graph.num_stages() + 1; ++d) {
      Schedule p = prefix_schedule(full, d);
      EXPECT_EQ(validate_schedule(p, hw.num_unroll_options()), "")
          << "seed " << seed << " depth " << d;
    }
  }
}

TEST_F(PrefixFixture, FullDepthPrefixIsTheSchedule) {
  Schedule full = sample(3);
  Schedule p = prefix_schedule(full, graph.num_stages());
  EXPECT_EQ(p.fingerprint(), full.fingerprint());
}

TEST_F(PrefixFixture, PrefixFingerprintIgnoresUndecidedStages) {
  ASSERT_GE(graph.num_stages(), 2);
  Schedule a = sample(5);
  // A second schedule of the same sketch differing only in later stages:
  // mutate until the last stage's decisions change but stage 0's do not.
  Rng rng(99);
  const int unroll = hw.num_unroll_options();
  Schedule b = a;
  b.stages.back() = random_schedule(*a.sketch, unroll, rng).stages.back();
  ASSERT_EQ(validate_schedule(b, unroll), "");

  EXPECT_EQ(prefix_fingerprint(a, 1), prefix_fingerprint(b, 1));
  if (a.fingerprint() != b.fingerprint()) {
    EXPECT_NE(prefix_fingerprint(a, graph.num_stages()),
              prefix_fingerprint(b, graph.num_stages()));
  }
  // Depth is part of the identity: a deeper prefix of the same schedule
  // hashes differently.
  EXPECT_NE(prefix_fingerprint(a, 1), prefix_fingerprint(a, 2));
}

TEST_F(PrefixFixture, PrefixFeaturesAreDeterministicAndWidened) {
  FeatureExtractor fx(&hw);
  Schedule s = sample(7);
  constexpr int kW = FeatureExtractor::kNumPrefixFeatures;
  ASSERT_EQ(kW, FeatureExtractor::kNumFeatures + 2);
  std::vector<double> a(kW), b(kW);
  fx.extract_prefix_into(s, 1, a.data());
  fx.extract_prefix_into(s, 1, b.data());
  EXPECT_EQ(a, b);
  // The depth channel distinguishes depths even for the same schedule.
  fx.extract_prefix_into(s, graph.num_stages(), b.data());
  EXPECT_NE(a, b);
  EXPECT_EQ(b[FeatureExtractor::kNumFeatures], 1.0);  // depth/stages
  EXPECT_EQ(b[FeatureExtractor::kNumFeatures + 1], 0.0);  // none undecided
}

// ---- beam + representative selection -------------------------------------

TEST(BeamSelect, KeepsBestAndBreaksTiesTowardLowerIndex) {
  std::vector<double> scores = {0.3, 0.9, 0.9, 0.1, 0.9};
  // beam 2 of three tied 0.9s: indices 1 and 2 (lower index wins), ascending.
  EXPECT_EQ(ValueGuide::beam_select(scores, 2), (std::vector<int>{1, 2}));
  // beam >= n returns every index in original order.
  EXPECT_EQ(ValueGuide::beam_select(scores, 5),
            (std::vector<int>{0, 1, 2, 3, 4}));
  // beam < 1 clamps to 1.
  EXPECT_EQ(ValueGuide::beam_select(scores, 0), (std::vector<int>{1}));
}

TEST_F(PrefixFixture, RepresentativesAreDeterministicAndKeepTheHead) {
  ValueGuideOptions opts;
  opts.enabled = true;
  opts.sample_clusters = 4;
  ValueGuide guide(&hw, opts);

  std::vector<Schedule> batch;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) batch.push_back(sample(seed));

  std::vector<int> a = guide.select_representatives(batch);
  std::vector<int> b = guide.select_representatives(batch);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // The head of the (score-descending) batch is always measured: ceil(k/2)
  // leading indices survive.
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);

  // A batch no bigger than the cluster count passes through untouched.
  std::vector<Schedule> small(batch.begin(), batch.begin() + 3);
  EXPECT_EQ(guide.select_representatives(small), (std::vector<int>{0, 1, 2}));
}

TEST(DefaultPrefixDepth, HalfTheStagesRoundedUp) {
  EXPECT_EQ(ValueGuide::default_prefix_depth(0), 1);
  EXPECT_EQ(ValueGuide::default_prefix_depth(1), 1);
  EXPECT_EQ(ValueGuide::default_prefix_depth(2), 1);
  EXPECT_EQ(ValueGuide::default_prefix_depth(3), 2);
  EXPECT_EQ(ValueGuide::default_prefix_depth(4), 2);
  EXPECT_EQ(ValueGuide::default_prefix_depth(5), 3);
}

// ---- value dataset --------------------------------------------------------

struct ValueDatasetFixture : ::testing::Test {
  ValueDatasetFixture()
      : graph(make_gemm(48, 48, 48)), hw(HardwareConfig::xeon_6226r()) {
    resolver = [this](const std::string&,
                      const std::string& task) -> const Subgraph* {
      return task == graph.name() ? &graph : nullptr;
    };
    // A short real run provides well-formed records to build from.
    SearchOptions opts = quick_options("HARL", 17);
    opts.measures_per_round = 6;
    TuningSession session(graph, hw, opts);
    RecordLogger logger;
    log_path = "test_value_guide_records.jsonl";
    std::remove(log_path.c_str());
    logger.open(log_path, /*append=*/false);
    session.add_callback(&logger);
    session.run(24);
    logger.close();
    records = read_records(log_path);
  }

  ~ValueDatasetFixture() override { std::remove(log_path.c_str()); }

  Subgraph graph;
  HardwareConfig hw;
  TaskResolver resolver;
  std::string log_path;
  std::vector<TuningRecord> records;
};

TEST_F(ValueDatasetFixture, LabelIsBestOverCompletionsOfThePrefix) {
  ASSERT_FALSE(records.empty());
  // Two records sharing every prefix (same schedule) but different final
  // times: every prefix row they produce must be labeled with the *better*
  // completion (group best / min time = 1.0 here, since the faster record is
  // the group best).
  TuningRecord r1 = records.front();
  r1.cached = false;
  TuningRecord r2 = r1;
  r2.trial_index = r1.trial_index + 1;
  r2.time_ms = r1.time_ms * 2;  // strictly worse completion

  ExperienceStore store;
  store.add_records({r1, r2});
  ExperienceDataset ds = store.build_value_dataset(hw, resolver);
  ASSERT_EQ(ds.num_features, FeatureExtractor::kNumPrefixFeatures);
  // Both records share all prefixes: one row per depth, not per record.
  ASSERT_EQ(ds.rows, static_cast<std::size_t>(graph.num_stages()));
  for (double label : ds.labels) {
    EXPECT_DOUBLE_EQ(label, 1.0);  // best completion, not the worse one
  }
}

TEST_F(ValueDatasetFixture, DatasetIsByteStableUnderAddOrder) {
  ASSERT_GE(records.size(), 4u);
  ExperienceStore fwd, rev;
  fwd.add_records(records);
  std::vector<TuningRecord> shuffled(records.rbegin(), records.rend());
  rev.add_records(shuffled);
  // Adding the same log twice changes nothing either (exact-duplicate dedup).
  rev.add_records(records);

  HarvestStats sa, sb;
  ExperienceDataset a = fwd.build_value_dataset(hw, resolver, &sa);
  ExperienceDataset b = rev.build_value_dataset(hw, resolver, &sb);
  EXPECT_GT(a.rows, 0u);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.features, b.features);  // bitwise, not approximate
  EXPECT_EQ(a.labels, b.labels);

  // And so is the trained model (same bytes -> same fingerprint).
  GbdtConfig cfg;
  cfg.seed = 5;
  Gbdt ma = fwd.pretrain_value(hw, cfg, resolver);
  Gbdt mb = rev.pretrain_value(hw, cfg, resolver);
  ASSERT_TRUE(ma.trained());
  EXPECT_EQ(gbdt_fingerprint(ma), gbdt_fingerprint(mb));
  EXPECT_EQ(ma.num_features(), FeatureExtractor::kNumPrefixFeatures);
}

TEST_F(ValueDatasetFixture, ExperienceRowsKeepTheNarrowWidth) {
  ExperienceStore store;
  store.add_records(records);
  ExperienceDataset ds = store.build_dataset(hw, resolver);
  EXPECT_EQ(ds.num_features, FeatureExtractor::kNumFeatures);
}

// ---- guided search determinism -------------------------------------------

struct GuidedFixture : ValueDatasetFixture {
  GuidedFixture() {
    ExperienceStore store;
    store.add_records(records);
    GbdtConfig cfg;
    cfg.seed = 5;
    Gbdt model = store.pretrain_value(hw, cfg, resolver);
    EXPECT_TRUE(model.trained());
    model_path = "test_value_guide_model.json";
    std::string error;
    EXPECT_TRUE(save_gbdt(model, model_path, &error)) << error;
  }

  ~GuidedFixture() override { std::remove(model_path.c_str()); }

  SearchOptions guided_options(ThreadPool* pool) {
    SearchOptions opts = quick_options("HARL", 17);
    opts.measures_per_round = 6;
    opts.value_guide.enabled = true;
    opts.value_guide.model_path = model_path;
    opts.value_guide.beam_width = 8;
    opts.value_guide.sample_clusters = 3;
    opts.pool = pool;
    return opts;
  }

  std::string model_path;
};

TEST_F(GuidedFixture, SerialAndParallelCurvesAreBitIdentical) {
  auto run_one = [&](ThreadPool* pool) {
    TuningSession session(graph, hw, guided_options(pool));
    session.run(36);
    const TaskState& task = session.scheduler().task(0);
    return std::make_tuple(task.curve(), session.latency_ms(),
                           task.credited_candidates(),
                           session.scheduler().value_fingerprint());
  };
  ThreadPool serial(1), wide(4);
  auto [curve_s, lat_s, cred_s, fp_s] = run_one(&serial);
  auto [curve_w, lat_w, cred_w, fp_w] = run_one(&wide);
  EXPECT_NE(fp_s, 0u);  // the model actually loaded
  EXPECT_EQ(fp_s, fp_w);
  EXPECT_EQ(lat_s, lat_w);
  EXPECT_EQ(cred_s, cred_w);
  ASSERT_EQ(curve_s.size(), curve_w.size());
  for (std::size_t i = 0; i < curve_s.size(); ++i) {
    EXPECT_EQ(curve_s[i].trials, curve_w[i].trials);
    EXPECT_EQ(curve_s[i].best_ms, curve_w[i].best_ms);
  }
}

TEST_F(GuidedFixture, GuidedRunResumesBitIdentically) {
  ThreadPool pool(1);
  std::string glog = "test_value_guide_resume.jsonl";
  std::remove(glog.c_str());
  {
    TuningSession full(graph, hw, guided_options(&pool));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(glog, /*append=*/false));
    full.add_callback(&logger);
    full.run(36);
    logger.close();

    std::vector<TuningRecord> logged = read_records(glog);
    ASSERT_FALSE(logged.empty());
    // Guided records carry the value-model fingerprint as run identity.
    const std::uint64_t vm = full.scheduler().value_fingerprint();
    ASSERT_NE(vm, 0u);
    for (const TuningRecord& r : logged) EXPECT_EQ(r.value_fp, vm);

    TuningSession resumed(graph, hw, guided_options(&pool));
    ResumeStats stats = resume_session(resumed, logged);
    EXPECT_EQ(stats.records_matched, logged.size());
    resumed.run(36);
    EXPECT_EQ(resumed.latency_ms(), full.latency_ms());

    // An *unguided* session must not replay guided records: the vm stamp
    // forks the run identity.
    SearchOptions unguided = quick_options("HARL", 17);
    unguided.measures_per_round = 6;
    unguided.pool = &pool;
    TuningSession other(graph, hw, unguided);
    ResumeStats cross = resume_session(other, logged);
    EXPECT_EQ(cross.records_matched, 0u);
  }
  std::remove(glog.c_str());
}

}  // namespace
}  // namespace harl
