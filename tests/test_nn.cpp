#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/categorical.hpp"
#include "nn/mlp.hpp"
#include "reference/mlp_reference.hpp"

namespace harl {
namespace {

using reference::ReferenceMlp;

TEST(Mlp, OutputShapeAndDeterminism) {
  Rng rng(1);
  Mlp net({4, 8, 3}, rng);
  EXPECT_EQ(net.in_dim(), 4);
  EXPECT_EQ(net.out_dim(), 3);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8u * 3 + 3);
  std::vector<double> x = {0.1, -0.2, 0.3, 0.5};
  Mlp::Workspace ws;
  const double* y = net.forward(x.data(), 1, ws);
  std::vector<double> first(y, y + 3);
  y = net.forward(x.data(), 1, ws);
  EXPECT_EQ(first, std::vector<double>(y, y + 3));
}

/// Finite-difference gradient check of the full backprop path: every weight
/// and bias of every layer.
TEST(Mlp, GradientMatchesFiniteDifference) {
  Rng rng(2);
  Mlp net({3, 5, 2}, rng);
  std::vector<double> x = {0.3, -0.7, 1.1};
  Mlp::Workspace ws;
  auto loss = [&]() {
    const double* y = net.forward(x.data(), 1, ws);
    return y[0] * y[0] + y[1] * y[1];  // L = sum out^2
  };

  const double* y = net.forward(x.data(), 1, ws);
  std::vector<double> dout = {2 * y[0], 2 * y[1]};
  net.zero_grad(ws);
  net.backward(dout.data(), ws);
  const std::vector<double> grads(ws.grads(), ws.grads() + net.num_parameters());

  const double eps = 1e-6;
  for (std::size_t k = 0; k < net.num_parameters(); ++k) {
    double save = net.params()[k];
    net.params()[k] = save + eps;
    double lp = loss();
    net.params()[k] = save - eps;
    double lm = loss();
    net.params()[k] = save;
    double numeric = (lp - lm) / (2 * eps);
    ASSERT_NEAR(grads[k], numeric, 1e-5) << "parameter " << k;
  }
}

/// The real gradient check: train on a fixed sample; if gradients were
/// wrong, Adam steps along them would not reduce the loss monotonically-ish.
TEST(Mlp, AdamDescendsQuadraticLoss) {
  Rng rng(3);
  Mlp net({2, 16, 1}, rng);
  const int n = 64;
  std::vector<double> xs, ys;
  for (int i = 0; i < n; ++i) {
    double a = rng.next_range(-1, 1), b = rng.next_range(-1, 1);
    xs.push_back(a);
    xs.push_back(b);
    ys.push_back(0.7 * a - 1.3 * b + 0.2);
  }
  Mlp::Workspace ws;
  std::vector<double> dout(n);
  auto epoch_loss = [&]() {
    const double* p = net.forward(xs.data(), n, ws);
    double l = 0;
    for (int i = 0; i < n; ++i) l += (p[i] - ys[i]) * (p[i] - ys[i]);
    return l / n;
  };
  double initial = epoch_loss();
  for (int epoch = 0; epoch < 300; ++epoch) {
    net.zero_grad(ws);
    const double* p = net.forward(xs.data(), n, ws);
    for (int i = 0; i < n; ++i) dout[i] = 2 * (p[i] - ys[i]) / n;
    net.backward(dout.data(), ws);
    net.adam_step(1e-2, ws);
  }
  EXPECT_LT(epoch_loss(), initial * 0.01);
}

TEST(Mlp, BackwardAccumulatesAcrossSamples) {
  Rng rng(4);
  Mlp net({2, 4, 1}, rng);
  std::vector<double> x1 = {1.0, 0.0}, x2 = {0.0, 1.0};
  std::vector<double> one = {1.0};
  Mlp::Workspace ws;
  net.zero_grad(ws);
  net.forward(x1.data(), 1, ws);
  net.backward(one.data(), ws);
  double g1 = net.grad_norm(ws);
  net.forward(x2.data(), 1, ws);
  net.backward(one.data(), ws);
  double g2 = net.grad_norm(ws);
  EXPECT_NE(g1, g2);  // second backward added gradient mass
}

// ---------------------------------------------------------------------------
// Bit-equality against the per-sample reference.  The dims hit every tile
// tail of the kernels (4-wide and 8-wide blocks of rows and columns plus
// their 2- and 1-wide remainders), and the batch sizes cover a single row,
// a partial row block and a block plus one.

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Layer l's weights of `buf` (Mlp's flat layout) in the reference's
/// row-major [out x in] order, then its biases.
std::vector<double> reference_order(const Mlp& net, const std::vector<int>& dims, int l,
                                    const double* buf) {
  const int in = dims[static_cast<std::size_t>(l)];
  const int out = dims[static_cast<std::size_t>(l) + 1];
  std::vector<double> v;
  for (int o = 0; o < out; ++o) {
    for (int i = 0; i < in; ++i) {
      v.push_back(buf[net.weight_offset(l) + static_cast<std::size_t>(i) * out + o]);
    }
  }
  for (int o = 0; o < out; ++o) v.push_back(buf[net.bias_offset(l) + static_cast<std::size_t>(o)]);
  return v;
}

std::vector<double> reference_params(const ReferenceMlp& ref, int l, bool grads) {
  const reference::ReferenceLayer& layer = ref.layers()[static_cast<std::size_t>(l)];
  std::vector<double> v = grads ? layer.gw : layer.w;
  const std::vector<double>& b = grads ? layer.gb : layer.b;
  v.insert(v.end(), b.begin(), b.end());
  return v;
}

/// Rows of inputs and output gradients; every fifth output gradient is an
/// exact zero, the case the reference skips and the batched kernel adds.
struct Batch {
  std::vector<double> x, dout;
};

Batch make_batch(const std::vector<int>& dims, int n, Rng& rng) {
  Batch b;
  for (int k = 0; k < n * dims.front(); ++k) b.x.push_back(rng.next_range(-1.5, 1.5));
  for (int k = 0; k < n * dims.back(); ++k) {
    b.dout.push_back(k % 5 == 0 ? 0.0 : rng.next_range(-0.3, 0.3));
  }
  return b;
}

void expect_matches_reference(const std::vector<int>& dims, int n) {
  SCOPED_TRACE(::testing::Message() << "dims[1]=" << dims[1] << " n=" << n);
  Rng init_a(11), init_b(11), data(12);
  Mlp net(dims, init_a);
  ReferenceMlp ref(dims, init_b);
  const int in = dims.front(), out = dims.back();
  const int layers = static_cast<int>(dims.size()) - 1;
  Mlp::Workspace ws;

  for (int step = 0; step < 3; ++step) {
    Batch b = make_batch(dims, n, data);
    net.zero_grad(ws);
    ref.zero_grad();
    const double* y = net.forward(b.x.data(), n, ws);
    for (int s = 0; s < n; ++s) {
      std::vector<double> xs(b.x.begin() + s * in, b.x.begin() + (s + 1) * in);
      ReferenceMlp::Trace trace;
      std::vector<double> ys = ref.forward(xs, &trace);
      ASSERT_TRUE(same_bits(y + static_cast<std::size_t>(s) * out, ys.data(), ys.size()))
          << "forward row " << s << " step " << step;
      ref.backward(trace, std::vector<double>(b.dout.begin() + s * out,
                                              b.dout.begin() + (s + 1) * out));
    }
    net.backward(b.dout.data(), ws);
    // Layer 0's gradients are built from every hidden layer's input gradient
    // (dx), so equal layer-0 bits also pin dx.
    for (int l = 0; l < layers; ++l) {
      std::vector<double> mine = reference_order(net, dims, l, ws.grads());
      std::vector<double> theirs = reference_params(ref, l, true);
      ASSERT_TRUE(same_bits(mine.data(), theirs.data(), mine.size()))
          << "gradients of layer " << l << " step " << step;
    }
    net.adam_step(1e-2, ws);
    ref.adam_step(1e-2);
    for (int l = 0; l < layers; ++l) {
      std::vector<double> mine = reference_order(net, dims, l, net.params());
      std::vector<double> theirs = reference_params(ref, l, false);
      ASSERT_TRUE(same_bits(mine.data(), theirs.data(), mine.size()))
          << "parameters of layer " << l << " after Adam step " << step;
    }
  }
}

TEST(MlpBatched, MatchesPerSampleReferenceBitForBit) {
  for (const std::vector<int>& dims :
       {std::vector<int>{5, 7, 3}, std::vector<int>{61, 64, 64, 110}}) {
    for (int n : {1, 3, 8, 33}) expect_matches_reference(dims, n);
  }
}

TEST(MlpBatched, BatchOfNEqualsNBatchesOfOne) {
  const std::vector<int> dims = {61, 64, 64, 110};
  const int n = 33, in = dims.front(), out = dims.back();
  Rng init_a(21), init_b(21), data(22);
  Mlp whole(dims, init_a), single(dims, init_b);
  Batch b = make_batch(dims, n, data);
  Mlp::Workspace ws_whole, ws_single;

  whole.zero_grad(ws_whole);
  single.zero_grad(ws_single);
  const double* y = whole.forward(b.x.data(), n, ws_whole);
  std::vector<double> rows(y, y + static_cast<std::size_t>(n) * out);
  whole.backward(b.dout.data(), ws_whole);
  for (int s = 0; s < n; ++s) {
    const double* ys = single.forward(b.x.data() + static_cast<std::size_t>(s) * in, 1, ws_single);
    ASSERT_TRUE(same_bits(rows.data() + static_cast<std::size_t>(s) * out, ys,
                          static_cast<std::size_t>(out)))
        << "row " << s;
    single.backward(b.dout.data() + static_cast<std::size_t>(s) * out, ws_single);
  }
  EXPECT_TRUE(same_bits(ws_whole.grads(), ws_single.grads(), whole.num_parameters()));
}

// ---------------------------------------------------------------------------

TEST(Categorical, SoftmaxSumsToOne) {
  std::vector<double> logits = {1.0, 2.0, 3.0, -1.0};
  std::vector<double> p(4);
  masked_softmax(logits.data(), 4, nullptr, p.data());
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Categorical, MaskZeroesInvalidActions) {
  std::vector<double> logits = {5.0, 1.0, 1.0};
  std::vector<bool> mask = {false, true, true};
  std::vector<double> p(3, -1.0);
  masked_softmax(logits.data(), 3, &mask, p.data());
  EXPECT_EQ(p[0], 0.0);
  EXPECT_NEAR(p[1] + p[2], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(Categorical, SoftmaxNumericallyStableForHugeLogits) {
  std::vector<double> logits = {1000.0, 1001.0};
  std::vector<double> p(2);
  masked_softmax(logits.data(), 2, nullptr, p.data());
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(Categorical, SamplingFollowsDistribution) {
  std::vector<double> p = {0.1, 0.6, 0.3};
  Rng rng(5);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[sample_categorical(p.data(), 3, rng)];
  EXPECT_NEAR(counts[1] / 10000.0, 0.6, 0.03);
  EXPECT_NEAR(counts[2] / 10000.0, 0.3, 0.03);
}

TEST(Categorical, EntropyExtremes) {
  std::vector<double> half = {0.5, 0.5}, sure = {1.0, 0.0};
  EXPECT_NEAR(categorical_entropy(half.data(), 2), std::log(2.0), 1e-12);
  EXPECT_NEAR(categorical_entropy(sure.data(), 2), 0.0, 1e-12);
}

TEST(Categorical, LogProb) {
  std::vector<double> p = {0.2, 0.7, 0.1};
  EXPECT_NEAR(categorical_log_prob(p.data(), 1), std::log(0.7), 1e-12);
}

/// Finite-difference check of categorical_backward: perturb logits and
/// compare d(coef_logp*logp + coef_ent*H)/dlogits.
TEST(Categorical, BackwardMatchesFiniteDifference) {
  std::vector<double> logits = {0.4, -0.3, 1.2, 0.0};
  std::vector<bool> mask = {true, true, false, true};
  const int n = 4, action = 1;
  const double cl = 0.8, ce = 0.3;

  auto objective = [&](const std::vector<double>& lg) {
    std::vector<double> p(n);
    masked_softmax(lg.data(), n, &mask, p.data());
    return cl * categorical_log_prob(p.data(), action) +
           ce * categorical_entropy(p.data(), n);
  };
  std::vector<double> p(n), analytic(n);
  masked_softmax(logits.data(), n, &mask, p.data());
  categorical_backward(p.data(), n, action, cl, ce, &mask, analytic.data());

  const double eps = 1e-6;
  for (std::size_t k = 0; k < logits.size(); ++k) {
    std::vector<double> lp = logits, lm = logits;
    lp[k] += eps;
    lm[k] -= eps;
    double numeric = (objective(lp) - objective(lm)) / (2 * eps);
    EXPECT_NEAR(analytic[k], numeric, 1e-6) << "logit " << k;
  }
}

}  // namespace
}  // namespace harl
