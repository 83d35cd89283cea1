#include "nn/mlp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

#include "util/logging.hpp"

namespace harl {

namespace {

// Every kernel below is one plain C++ body compiled twice: at the baseline ISA
// and, on x86 with a GNU compiler, as an AVX2 twin.  Only the vector width
// across independent elements differs; see "Numerics" on Mlp for why the bits
// cannot.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HARL_MLP_AVX2 1
#define HARL_KERNEL_BODY __attribute__((always_inline)) inline
#else
#define HARL_MLP_AVX2 0
#define HARL_KERNEL_BODY inline
#endif

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

HARL_KERNEL_BODY void accumulate_rows_body(const RowBlock& b, int n, int len, int depth) {
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

/// One Adam update of `count` parameters:
///   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g;
///   p -= lr (m / bc1) / (sqrt(v / bc2) + eps).
/// Run in chunks of three loops so that the divisions vectorize: loop A
/// updates the moments and stages v / bc2, loop B takes its square root one
/// element at a time (std::sqrt sets errno, which keeps it scalar), loop C
/// applies the step.  Every element evaluates the expression above unchanged.
struct AdamBlock {
  double* p;
  const double* g;
  double* m;
  double* v;
  std::size_t count;
  double lr, bc1, bc2;
};

constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

HARL_KERNEL_BODY void adam_update_body(const AdamBlock& a) {
  constexpr std::size_t kChunk = 256;
  double root[kChunk];
  for (std::size_t c0 = 0; c0 < a.count; c0 += kChunk) {
    const std::size_t len = std::min(kChunk, a.count - c0);
    double* p = a.p + c0;
    const double* g = a.g + c0;
    double* m = a.m + c0;
    double* v = a.v + c0;
    for (std::size_t i = 0; i < len; ++i) {
      m[i] = kBeta1 * m[i] + (1 - kBeta1) * g[i];
      v[i] = kBeta2 * v[i] + (1 - kBeta2) * g[i] * g[i];
      root[i] = v[i] / a.bc2;
    }
    for (std::size_t i = 0; i < len; ++i) root[i] = std::sqrt(root[i]);
    for (std::size_t i = 0; i < len; ++i) p[i] -= a.lr * (m[i] / a.bc1) / (root[i] + kEps);
  }
}

/// One instruction-set variant of every kernel.
struct Kernels {
  detail::MlpKernel kind;
  void (*accumulate_rows)(const RowBlock&, int n, int len, int depth);
  void (*adam_update)(const AdamBlock&);
};

void accumulate_rows_baseline(const RowBlock& b, int n, int len, int depth) {
  accumulate_rows_body(b, n, len, depth);
}
void adam_update_baseline(const AdamBlock& a) { adam_update_body(a); }
constexpr Kernels kBaselineKernels{detail::MlpKernel::kBaseline, accumulate_rows_baseline,
                                   adam_update_baseline};

#if HARL_MLP_AVX2
// AVX2 alone, never a target that implies FMA (avx512f, x86-64-v3): the
// compiler would contract acc += c * row into a fused multiply-add.
__attribute__((target("avx2"))) void accumulate_rows_avx2(const RowBlock& b, int n, int len,
                                                          int depth) {
  accumulate_rows_body(b, n, len, depth);
}
__attribute__((target("avx2"))) void adam_update_avx2(const AdamBlock& a) {
  adam_update_body(a);
}
constexpr Kernels kAvx2Kernels{detail::MlpKernel::kAvx2, accumulate_rows_avx2,
                               adam_update_avx2};
#endif

const Kernels* kernels_for(detail::MlpKernel k) {
#if HARL_MLP_AVX2
  if (k == detail::MlpKernel::kAvx2) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
  }
#endif
  return k == detail::MlpKernel::kBaseline ? &kBaselineKernels : nullptr;
}

/// The variant every pass uses: the widest this CPU runs, picked once.
std::atomic<const Kernels*>& active_kernels() {
  static std::atomic<const Kernels*> active{[] {
    const Kernels* avx2 = kernels_for(detail::MlpKernel::kAvx2);
    return avx2 != nullptr ? avx2 : &kBaselineKernels;
  }()};
  return active;
}

const Kernels& kernels() { return *active_kernels().load(std::memory_order_relaxed); }

void grow(std::vector<double>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

}  // namespace

namespace detail {

bool mlp_kernel_supported(MlpKernel k) { return kernels_for(k) != nullptr; }

MlpKernel mlp_kernel() { return kernels().kind; }

MlpKernel set_mlp_kernel(MlpKernel k) {
  const Kernels* next = kernels_for(k);
  HARL_CHECK(next != nullptr, "set_mlp_kernel: this CPU cannot run the requested variant");
  return active_kernels().exchange(next, std::memory_order_relaxed)->kind;
}

const char* mlp_kernel_name(MlpKernel k) {
  return k == MlpKernel::kAvx2 ? "avx2" : "baseline";
}

}  // namespace detail

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
  const Kernels& kern = kernels();
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
    kern.accumulate_rows({next, out, cur, in, 1, w, out}, n, out, in);
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
  const Kernels& kern = kernels();

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
    kern.accumulate_rows({gw, out, x, 1, in, d, out}, in, out, n);
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
      kern.accumulate_rows({dx, in, d + o0, out, 1, wo, in}, n, in, k);
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
  const double bc1 = 1.0 - std::pow(kBeta1, adam_t_);
  const double bc2 = 1.0 - std::pow(kBeta2, adam_t_);
  kernels().adam_update({params_.data(), ws.grads_.data(), adam_m_.data(), adam_v_.data(),
                         params_.size(), lr, bc1, bc2});
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
