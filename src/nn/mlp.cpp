#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/logging.hpp"

namespace harl {

namespace {

/// For every block row r < n: acc_r[j] += coef_r[t] * rows[t][j] for
/// t = 0, 1, ..., depth-1 in that order, for every j < len.  Each acc_r[j]
/// still adds its terms one at a time, t ascending, so the result is the
/// scalar loop's bit for bit.  Four terms are added per pass, keeping acc_r[j]
/// in a register across them while their four `rows` stay in L1 for every r;
/// the j loop vectorizes across independent outputs.
///   acc_r   = acc + r * acc_stride
///   coef_r  = coef + r * coef_row, and coef_r[t] is read at t * coef_step
///   rows[t] = rows + t * row_stride
struct RowBlock {
  double* acc;
  std::ptrdiff_t acc_stride;
  const double* coef;
  std::ptrdiff_t coef_row, coef_step;
  const double* rows;
  std::ptrdiff_t row_stride;
};

void accumulate_rows(const RowBlock& b, int n, int len, int depth) {
  int t = 0;
  for (; t + 4 <= depth; t += 4) {
    const double* r0 = b.rows + t * b.row_stride;
    const double* r1 = r0 + b.row_stride;
    const double* r2 = r1 + b.row_stride;
    const double* r3 = r2 + b.row_stride;
    for (int r = 0; r < n; ++r) {
      const double* coef = b.coef + r * b.coef_row + t * b.coef_step;
      const double c0 = coef[0], c1 = coef[b.coef_step];
      const double c2 = coef[2 * b.coef_step], c3 = coef[3 * b.coef_step];
      double* acc = b.acc + r * b.acc_stride;
      for (int j = 0; j < len; ++j) {
        double v = acc[j];
        v += c0 * r0[j];
        v += c1 * r1[j];
        v += c2 * r2[j];
        v += c3 * r3[j];
        acc[j] = v;
      }
    }
  }
  for (; t < depth; ++t) {
    const double* row = b.rows + t * b.row_stride;
    for (int r = 0; r < n; ++r) {
      const double c = b.coef[r * b.coef_row + t * b.coef_step];
      double* acc = b.acc + r * b.acc_stride;
      for (int j = 0; j < len; ++j) acc[j] += c * row[j];
    }
  }
}

void grow(std::vector<double>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

}  // namespace

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) : dims_(dims) {
  HARL_CHECK(dims.size() >= 2, "Mlp needs at least input and output dims");
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    offsets_.push_back(total);
    total += static_cast<std::size_t>(dims[l] + 1) * static_cast<std::size_t>(dims[l + 1]);
  }
  params_.assign(total, 0.0);
  for (int l = 0; l < num_layers(); ++l) {
    const int in = dims_[static_cast<std::size_t>(l)];
    const int out = dims_[static_cast<std::size_t>(l) + 1];
    double* w = params_.data() + weight_offset(l);
    // Xavier/Glorot uniform initialization, drawn output-major.
    double bound = std::sqrt(6.0 / (in + out));
    for (int o = 0; o < out; ++o) {
      for (int i = 0; i < in; ++i) {
        w[static_cast<std::size_t>(i) * out + o] = rng.next_range(-bound, bound);
      }
    }
  }
  adam_m_.assign(total, 0.0);
  adam_v_.assign(total, 0.0);
}

const double* Mlp::forward(const double* x, int n, Workspace& ws) const {
  HARL_CHECK(n >= 0, "Mlp::forward: negative row count");
  std::size_t width = 0;
  for (int d : dims_) width += static_cast<std::size_t>(d);
  grow(ws.acts_, width * static_cast<std::size_t>(n));
  ws.rows_ = n;
  double* cur = ws.acts_.data();
  std::copy(x, x + static_cast<std::size_t>(n) * static_cast<std::size_t>(in_dim()), cur);
  for (int l = 0; l < num_layers(); ++l) {
    const int in = dims_[static_cast<std::size_t>(l)];
    const int out = dims_[static_cast<std::size_t>(l) + 1];
    double* next = cur + static_cast<std::size_t>(n) * static_cast<std::size_t>(in);
    const double* w = params_.data() + weight_offset(l);
    const double* bias = params_.data() + bias_offset(l);
    for (int r = 0; r < n; ++r) {
      std::copy(bias, bias + out, next + static_cast<std::size_t>(r) * out);
    }
    accumulate_rows({next, out, cur, in, 1, w, out}, n, out, in);
    if (l + 1 < num_layers()) {
      double* end = next + static_cast<std::size_t>(n) * static_cast<std::size_t>(out);
      for (double* v = next; v != end; ++v) *v = std::tanh(*v);
    }
    cur = next;
  }
  return cur;
}

void Mlp::backward(const double* dout, Workspace& ws) const {
  HARL_CHECK(ws.grads_.size() == params_.size(), "Mlp::backward: zero_grad the workspace first");
  const int n = ws.rows_;
  const std::size_t rows = static_cast<std::size_t>(n);
  std::size_t max_hidden = 0;
  for (int l = 1; l < num_layers(); ++l) {
    max_hidden = std::max(max_hidden, static_cast<std::size_t>(dims_[static_cast<std::size_t>(l)]));
  }
  grow(ws.grad_[0], max_hidden * rows);
  grow(ws.grad_[1], max_hidden * rows);
  grow(ws.weight_rows_, 4 * max_hidden);

  // Start of the top layer's input activations in ws.acts_.
  std::size_t act_off = 0;
  for (int l = 0; l + 1 < num_layers(); ++l) {
    act_off += static_cast<std::size_t>(dims_[static_cast<std::size_t>(l)]) * rows;
  }

  const double* d = dout;
  for (int l = num_layers(); l-- > 0;) {
    const int in = dims_[static_cast<std::size_t>(l)];
    const int out = dims_[static_cast<std::size_t>(l) + 1];
    const double* x = ws.acts_.data() + act_off;
    const double* w = params_.data() + weight_offset(l);
    double* gw = ws.grads_.data() + weight_offset(l);
    double* gb = ws.grads_.data() + bias_offset(l);

    // gb[o] += d[s][o] and gw[i][o] += x[s][i] * d[s][o], s ascending.
    for (int s = 0; s < n; ++s) {
      const double* ds = d + static_cast<std::size_t>(s) * out;
      for (int o = 0; o < out; ++o) gb[o] += ds[o];
    }
    accumulate_rows({gw, out, x, 1, in, d, out}, in, out, n);
    if (l == 0) break;

    // dx[s][i] = +0 + sum over o ascending of d[s][o] * w[i][o].  Four
    // outputs at a time, their weights are copied output-major so each o
    // contributes a contiguous row; dx goes to the gradient buffer d is not
    // in.
    double* dx = ws.grad_[d == ws.grad_[0].data() ? 1 : 0].data();
    std::fill(dx, dx + rows * static_cast<std::size_t>(in), 0.0);
    double* wo = ws.weight_rows_.data();
    for (int o0 = 0; o0 < out; o0 += 4) {
      const int k = std::min(4, out - o0);
      for (int t = 0; t < k; ++t) {
        for (int i = 0; i < in; ++i) {
          wo[static_cast<std::size_t>(t) * in + i] = w[static_cast<std::size_t>(i) * out + o0 + t];
        }
      }
      accumulate_rows({dx, in, d + o0, out, 1, wo, in}, n, in, k);
    }

    // Undo the tanh of the layer below: dpre = dact * (1 - act^2).
    act_off -= static_cast<std::size_t>(dims_[static_cast<std::size_t>(l) - 1]) * rows;
    for (std::size_t k = 0; k < rows * static_cast<std::size_t>(in); ++k) {
      dx[k] *= 1.0 - x[k] * x[k];
    }
    d = dx;
  }
}

void Mlp::zero_grad(Workspace& ws) const { ws.grads_.assign(params_.size(), 0.0); }

void Mlp::adam_step(double lr, const Workspace& ws) {
  HARL_CHECK(ws.grads_.size() == params_.size(), "Mlp::adam_step: gradients of another net");
  ++adam_t_;
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  const double bc1 = 1.0 - std::pow(beta1, adam_t_);
  const double bc2 = 1.0 - std::pow(beta2, adam_t_);
  double* p = params_.data();
  const double* g = ws.grads_.data();
  double* m = adam_m_.data();
  double* v = adam_v_.data();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m[i] = beta1 * m[i] + (1 - beta1) * g[i];
    v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i];
    p[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
  }
}

double Mlp::grad_norm(const Workspace& ws) const {
  double s = 0;
  for (int l = 0; l < num_layers(); ++l) {
    const int in = dims_[static_cast<std::size_t>(l)];
    const int out = dims_[static_cast<std::size_t>(l) + 1];
    const double* gw = ws.grads_.data() + weight_offset(l);
    const double* gb = ws.grads_.data() + bias_offset(l);
    for (int o = 0; o < out; ++o) {
      for (int i = 0; i < in; ++i) {
        const double g = gw[static_cast<std::size_t>(i) * out + o];
        s += g * g;
      }
    }
    for (int o = 0; o < out; ++o) s += gb[o] * gb[o];
  }
  return std::sqrt(s);
}

}  // namespace harl
