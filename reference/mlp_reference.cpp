#include "reference/mlp_reference.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace harl {
namespace reference {

ReferenceLayer::ReferenceLayer(int in, int out, Rng& rng) : in_dim(in), out_dim(out) {
  std::size_t n = static_cast<std::size_t>(in) * static_cast<std::size_t>(out);
  w.resize(n);
  // Xavier/Glorot uniform initialization.
  double bound = std::sqrt(6.0 / (in + out));
  for (double& v : w) v = rng.next_range(-bound, bound);
  b.assign(static_cast<std::size_t>(out), 0.0);
  gw.assign(n, 0.0);
  gb.assign(static_cast<std::size_t>(out), 0.0);
  mw.assign(n, 0.0);
  vw.assign(n, 0.0);
  mb.assign(static_cast<std::size_t>(out), 0.0);
  vb.assign(static_cast<std::size_t>(out), 0.0);
}

void ReferenceLayer::forward(const std::vector<double>& x, std::vector<double>* y) const {
  y->assign(static_cast<std::size_t>(out_dim), 0.0);
  for (int o = 0; o < out_dim; ++o) {
    const double* row = &w[static_cast<std::size_t>(o) * in_dim];
    double acc = b[static_cast<std::size_t>(o)];
    for (int i = 0; i < in_dim; ++i) acc += row[i] * x[static_cast<std::size_t>(i)];
    (*y)[static_cast<std::size_t>(o)] = acc;
  }
}

void ReferenceLayer::backward(const std::vector<double>& x, const std::vector<double>& dy,
                              std::vector<double>* dx) {
  if (dx != nullptr) dx->assign(static_cast<std::size_t>(in_dim), 0.0);
  for (int o = 0; o < out_dim; ++o) {
    double d = dy[static_cast<std::size_t>(o)];
    if (d == 0.0) continue;
    double* grow = &gw[static_cast<std::size_t>(o) * in_dim];
    const double* row = &w[static_cast<std::size_t>(o) * in_dim];
    gb[static_cast<std::size_t>(o)] += d;
    for (int i = 0; i < in_dim; ++i) {
      grow[i] += d * x[static_cast<std::size_t>(i)];
      if (dx != nullptr) (*dx)[static_cast<std::size_t>(i)] += d * row[i];
    }
  }
}

void ReferenceLayer::zero_grad() {
  std::fill(gw.begin(), gw.end(), 0.0);
  std::fill(gb.begin(), gb.end(), 0.0);
}

void ReferenceLayer::adam_step(double lr, double beta1, double beta2, double eps, int t) {
  double bc1 = 1.0 - std::pow(beta1, t);
  double bc2 = 1.0 - std::pow(beta2, t);
  auto update = [&](std::vector<double>& p, std::vector<double>& g,
                    std::vector<double>& m, std::vector<double>& v) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      m[i] = beta1 * m[i] + (1 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i];
      p[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    }
  };
  update(w, gw, mw, vw);
  update(b, gb, mb, vb);
}

ReferenceMlp::ReferenceMlp(const std::vector<int>& dims, Rng& rng) {
  HARL_CHECK(dims.size() >= 2, "ReferenceMlp needs at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

std::vector<double> ReferenceMlp::forward(const std::vector<double>& x, Trace* trace) const {
  std::vector<double> cur = x;
  if (trace != nullptr) {
    trace->acts.clear();
    trace->acts.push_back(cur);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> next;
    layers_[l].forward(cur, &next);
    if (l + 1 < layers_.size()) {
      for (double& v : next) v = std::tanh(v);
    }
    cur = std::move(next);
    if (trace != nullptr) trace->acts.push_back(cur);
  }
  return cur;
}

void ReferenceMlp::backward(const Trace& trace, const std::vector<double>& dout) {
  HARL_CHECK(trace.acts.size() == layers_.size() + 1, "trace/layer mismatch");
  std::vector<double> grad = dout;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    // Undo the tanh of hidden layers: dpre = dact * (1 - act^2).
    if (l + 1 < layers_.size()) {
      const std::vector<double>& act = trace.acts[l + 1];
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= 1.0 - act[i] * act[i];
    }
    std::vector<double> dx;
    layers_[l].backward(trace.acts[l], grad, l > 0 ? &dx : nullptr);
    grad = std::move(dx);
  }
}

void ReferenceMlp::zero_grad() {
  for (ReferenceLayer& l : layers_) l.zero_grad();
}

void ReferenceMlp::adam_step(double lr) {
  ++adam_t_;
  for (ReferenceLayer& l : layers_) l.adam_step(lr, 0.9, 0.999, 1e-8, adam_t_);
}

}  // namespace reference
}  // namespace harl
