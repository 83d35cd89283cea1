#include <gtest/gtest.h>

#include <cmath>

#include "cost/gbdt.hpp"
#include "reference/gbdt_reference.hpp"
#include "util/rng.hpp"

namespace harl {
namespace {

/// Build a row-major dataset from a generator function.
template <typename F>
void make_dataset(int n, int d, F&& f, Rng& rng, std::vector<double>* x,
                  std::vector<double>* y) {
  x->clear();
  y->clear();
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<std::size_t>(d));
    for (double& v : row) v = rng.next_range(-2, 2);
    x->insert(x->end(), row.begin(), row.end());
    y->push_back(f(row));
  }
}

double mse(const Gbdt& model, const std::vector<double>& x, int d,
           const std::vector<double>& y) {
  double s = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    double p = model.predict(&x[i * static_cast<std::size_t>(d)]);
    s += (p - y[i]) * (p - y[i]);
  }
  return s / static_cast<double>(y.size());
}

TEST(Gbdt, FitsConstantFunction) {
  Rng rng(1);
  std::vector<double> x, y;
  make_dataset(200, 3, [](const std::vector<double>&) { return 2.5; }, rng, &x, &y);
  Gbdt model;
  model.fit(x, 3, y);
  EXPECT_NEAR(model.predict(&x[0]), 2.5, 1e-6);
}

TEST(Gbdt, FitsStepFunction) {
  Rng rng(2);
  std::vector<double> x, y;
  make_dataset(400, 2,
               [](const std::vector<double>& r) { return r[0] > 0 ? 1.0 : -1.0; },
               rng, &x, &y);
  Gbdt model;
  model.fit(x, 2, y);
  EXPECT_LT(mse(model, x, 2, y), 0.05);
}

TEST(Gbdt, FitsAdditiveNonlinear) {
  Rng rng(3);
  auto f = [](const std::vector<double>& r) {
    return std::sin(r[0]) + 0.5 * r[1] * r[1] - r[2];
  };
  std::vector<double> x, y;
  make_dataset(800, 3, f, rng, &x, &y);
  GbdtConfig cfg;
  cfg.num_trees = 100;
  Gbdt model(cfg);
  model.fit(x, 3, y);
  EXPECT_LT(mse(model, x, 3, y), 0.05);

  // Generalization on fresh samples from the same distribution.
  std::vector<double> xt, yt;
  make_dataset(200, 3, f, rng, &xt, &yt);
  EXPECT_LT(mse(model, xt, 3, yt), 0.3);
}

TEST(Gbdt, InteractionTermNeedsDepth) {
  // XOR-like target needs depth >= 2 splits; depth-1 stumps cannot fit it.
  Rng rng(4);
  auto f = [](const std::vector<double>& r) {
    return (r[0] > 0) == (r[1] > 0) ? 1.0 : 0.0;
  };
  std::vector<double> x, y;
  make_dataset(600, 2, f, rng, &x, &y);
  GbdtConfig stump;
  stump.max_depth = 1;
  stump.num_trees = 60;
  Gbdt shallow(stump);
  shallow.fit(x, 2, y);
  GbdtConfig deep_cfg;
  deep_cfg.max_depth = 4;
  deep_cfg.num_trees = 60;
  Gbdt deep(deep_cfg);
  deep.fit(x, 2, y);
  EXPECT_LT(mse(deep, x, 2, y), mse(shallow, x, 2, y) * 0.5);
}

TEST(Gbdt, RankingQualityOnMonotonicTarget) {
  Rng rng(5);
  auto f = [](const std::vector<double>& r) { return 3 * r[0] + r[1]; };
  std::vector<double> x, y;
  make_dataset(500, 4, f, rng, &x, &y);
  Gbdt model;
  model.fit(x, 4, y);
  int concordant = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      double pi = model.predict(&x[static_cast<std::size_t>(i) * 4]);
      double pj = model.predict(&x[static_cast<std::size_t>(j) * 4]);
      concordant += ((y[static_cast<std::size_t>(i)] < y[static_cast<std::size_t>(j)]) ==
                     (pi < pj));
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(concordant) / total, 0.9);
}

TEST(Gbdt, DeterministicForSameSeed) {
  Rng rng(6);
  std::vector<double> x, y;
  make_dataset(300, 3, [](const std::vector<double>& r) { return r[0] - r[2]; }, rng,
               &x, &y);
  Gbdt a, b;
  a.fit(x, 3, y);
  b.fit(x, 3, y);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(&x[static_cast<std::size_t>(i) * 3]),
                     b.predict(&x[static_cast<std::size_t>(i) * 3]));
  }
}

TEST(Gbdt, EmptyAndTinyDatasets) {
  Gbdt model;
  model.fit({}, 3, {});
  EXPECT_FALSE(model.trained());
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {5};
  model.fit(x, 3, y);  // single row: base score only
  EXPECT_NEAR(model.predict(x.data()), 5.0, 1e-9);
}

TEST(Gbdt, ConstantFeaturesYieldBaseScore) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.insert(x.end(), {1.0, 1.0});
    y.push_back(i % 2 ? 4.0 : 2.0);
  }
  GbdtConfig cfg;
  cfg.row_subsample = 1.0;  // subsampling skews residual means on purpose
  Gbdt model(cfg);
  model.fit(x, 2, y);
  // No split possible on constant features: prediction = mean.
  EXPECT_NEAR(model.predict(x.data()), 3.0, 1e-6);
}

// --- Pre-sorted rewrite vs the seed per-node re-sorting implementation ------

/// Compare the pre-sorted exact-mode Gbdt against the retained seed
/// implementation: same tree count, same node count, bit-identical
/// predictions on train and fresh rows.
void expect_bit_identical_to_reference(const GbdtConfig& cfg,
                                       const std::vector<double>& x, int d,
                                       const std::vector<double>& y,
                                       const std::vector<double>& fresh) {
  Gbdt fast(cfg);
  fast.fit(x, d, y);
  reference::ReferenceGbdt seed(cfg);
  seed.fit(x, d, y);
  ASSERT_EQ(fast.num_trees_fit(), seed.num_trees_fit());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(fast.predict(&x[i * static_cast<std::size_t>(d)]),
              seed.predict(&x[i * static_cast<std::size_t>(d)]))
        << "train row " << i;
  }
  for (std::size_t i = 0; i + static_cast<std::size_t>(d) <= fresh.size();
       i += static_cast<std::size_t>(d)) {
    ASSERT_EQ(fast.predict(&fresh[i]), seed.predict(&fresh[i])) << "fresh row " << i;
  }
}

TEST(GbdtExactParity, BitIdenticalOnContinuousData) {
  Rng rng(21);
  std::vector<double> x, y;
  make_dataset(300, 5,
               [](const std::vector<double>& r) {
                 return std::sin(r[0]) + r[1] * r[2] - 0.5 * r[4];
               },
               rng, &x, &y);
  std::vector<double> fresh;
  for (int i = 0; i < 50 * 5; ++i) fresh.push_back(rng.next_range(-2, 2));
  expect_bit_identical_to_reference(GbdtConfig{}, x, 5, y, fresh);
}

TEST(GbdtExactParity, BitIdenticalWithHeavyTies) {
  // Discretized features produce long runs of equal values; both
  // implementations break ties by row index, so parity must still be exact.
  Rng rng(22);
  std::vector<double> x, y;
  make_dataset(400, 4,
               [](const std::vector<double>& r) { return r[0] + 2 * r[1] - r[3]; },
               rng, &x, &y);
  for (double& v : x) v = std::round(v * 2) / 2;  // snap to a 0.5 grid
  std::vector<double> fresh;
  for (int i = 0; i < 40 * 4; ++i) {
    fresh.push_back(std::round(rng.next_range(-2, 2) * 2) / 2);
  }
  expect_bit_identical_to_reference(GbdtConfig{}, x, 4, y, fresh);
}

TEST(GbdtExactParity, BitIdenticalAcrossConfigs) {
  Rng rng(23);
  std::vector<double> x, y;
  make_dataset(250, 3,
               [](const std::vector<double>& r) { return r[0] * r[0] - r[1] * r[2]; },
               rng, &x, &y);
  std::vector<double> fresh;
  for (int i = 0; i < 30 * 3; ++i) fresh.push_back(rng.next_range(-2, 2));

  GbdtConfig no_subsample;
  no_subsample.row_subsample = 1.0;
  no_subsample.col_subsample = 1.0;
  expect_bit_identical_to_reference(no_subsample, x, 3, y, fresh);

  GbdtConfig deep;
  deep.max_depth = 9;
  deep.num_trees = 25;
  deep.min_samples_leaf = 1;
  expect_bit_identical_to_reference(deep, x, 3, y, fresh);

  GbdtConfig stumps;
  stumps.max_depth = 1;
  stumps.num_trees = 80;
  stumps.seed = 99;
  expect_bit_identical_to_reference(stumps, x, 3, y, fresh);
}

// --- Histogram mode ---------------------------------------------------------

TEST(GbdtHistogram, DeterministicForSameSeed) {
  Rng rng(24);
  std::vector<double> x, y;
  make_dataset(600, 4,
               [](const std::vector<double>& r) { return r[0] - r[2] + r[1] * r[3]; },
               rng, &x, &y);
  GbdtConfig cfg;
  cfg.split_mode = SplitMode::kHistogram;
  Gbdt a(cfg), b(cfg);
  a.fit(x, 4, y);
  b.fit(x, 4, y);
  ASSERT_EQ(a.num_trees_fit(), b.num_trees_fit());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(a.predict(&x[static_cast<std::size_t>(i) * 4]),
              b.predict(&x[static_cast<std::size_t>(i) * 4]));
  }
}

TEST(GbdtHistogram, WithinToleranceOfExact) {
  Rng rng(25);
  auto f = [](const std::vector<double>& r) {
    return std::sin(r[0]) + 0.5 * r[1] * r[1] - r[2];
  };
  std::vector<double> x, y;
  make_dataset(800, 3, f, rng, &x, &y);
  GbdtConfig exact_cfg;
  exact_cfg.num_trees = 100;
  Gbdt exact(exact_cfg);
  exact.fit(x, 3, y);
  GbdtConfig hist_cfg = exact_cfg;
  hist_cfg.split_mode = SplitMode::kHistogram;
  Gbdt hist(hist_cfg);
  hist.fit(x, 3, y);
  double mse_exact = mse(exact, x, 3, y);
  double mse_hist = mse(hist, x, 3, y);
  EXPECT_LT(mse_hist, 0.1);
  EXPECT_LT(mse_hist, mse_exact * 4 + 0.02);  // binned splits stay competitive
}

TEST(GbdtHistogram, FewBinsStillLearns) {
  Rng rng(26);
  std::vector<double> x, y;
  make_dataset(500, 2,
               [](const std::vector<double>& r) { return r[0] > 0 ? 1.0 : -1.0; },
               rng, &x, &y);
  GbdtConfig cfg;
  cfg.split_mode = SplitMode::kHistogram;
  cfg.histogram_bins = 8;
  Gbdt model(cfg);
  model.fit(x, 2, y);
  EXPECT_LT(mse(model, x, 2, y), 0.1);
}

// --- Flat batched inference -------------------------------------------------

TEST(GbdtBatch, PredictBatchBitMatchesScalar) {
  Rng rng(27);
  std::vector<double> x, y;
  make_dataset(400, 6,
               [](const std::vector<double>& r) {
                 return r[0] * r[1] + std::cos(r[3]) - r[5];
               },
               rng, &x, &y);
  for (SplitMode mode : {SplitMode::kExact, SplitMode::kHistogram}) {
    GbdtConfig cfg;
    cfg.split_mode = mode;
    Gbdt model(cfg);
    model.fit(x, 6, y);
    std::vector<double> batch(y.size());
    model.predict_batch(x.data(), y.size(), batch.data());
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(batch[i], model.predict(&x[i * 6])) << "row " << i;
    }
  }
}

// --- Warm start -------------------------------------------------------------

TEST(GbdtWarmStart, FitMoreGrowsEnsembleDeterministically) {
  Rng rng(28);
  auto f = [](const std::vector<double>& r) { return 2 * r[0] - r[1]; };
  std::vector<double> x, y;
  make_dataset(300, 3, f, rng, &x, &y);
  // The grown dataset: the original rows plus 100 fresh ones.
  std::vector<double> x2 = x, y2 = y;
  {
    Rng extra(29);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> row(3);
      for (double& v : row) v = extra.next_range(-2, 2);
      x2.insert(x2.end(), row.begin(), row.end());
      y2.push_back(f(row));
    }
  }

  auto train = [&] {
    Gbdt model;
    model.fit(x, 3, y);
    model.fit_more(x2, 3, y2, 10);
    return model;
  };
  Gbdt a = train();
  EXPECT_EQ(a.num_trees_fit(), a.config().num_trees + 10);
  EXPECT_LT(mse(a, x2, 3, y2), 0.1);  // fits the grown dataset too

  Gbdt b = train();  // same fit/fit_more sequence replays bit-identically
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(a.predict(&x2[static_cast<std::size_t>(i) * 3]),
              b.predict(&x2[static_cast<std::size_t>(i) * 3]));
  }
}

TEST(GbdtWarmStart, FitMoreOnUntrainedFallsBackToFit) {
  Rng rng(30);
  std::vector<double> x, y;
  make_dataset(200, 2, [](const std::vector<double>& r) { return r[0]; }, rng, &x, &y);
  Gbdt warm;
  warm.fit_more(x, 2, y, 10);
  Gbdt cold;
  cold.fit(x, 2, y);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(warm.predict(&x[static_cast<std::size_t>(i) * 2]),
              cold.predict(&x[static_cast<std::size_t>(i) * 2]));
  }
}

TEST(RegressionTreeUnit, SingleSplitRecoversThreshold) {
  // y = 1{x > 0.5}; tree should split near 0.5.
  std::vector<double> x;
  std::vector<double> g;
  std::vector<int> idx;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double v = rng.next_double();
    x.push_back(v);
    g.push_back(v > 0.5 ? 1.0 : 0.0);
    idx.push_back(i);
  }
  GbdtConfig cfg;
  cfg.max_depth = 1;
  cfg.col_subsample = 1.0;
  cfg.l2_lambda = 0.0;
  RegressionTree tree;
  tree.fit(x, 1, g, idx, cfg, rng);
  double lo = 0.2, hi = 0.8;
  EXPECT_NEAR(tree.predict(&lo), 0.0, 0.05);
  EXPECT_NEAR(tree.predict(&hi), 1.0, 0.05);
}

}  // namespace
}  // namespace harl
