#pragma once

/// \file mlp.hpp
/// Minimal MLP (dense layers + tanh) with manual backprop — the function
/// approximator for the PPO actor and critic.  Every pass runs over a block
/// of rows; one sample is a block of one.  Invariant: initialization and
/// updates are deterministic from the seed, and every output element is
/// accumulated in a fixed order that does not depend on the block size.
/// Collaborators: rl/ppo.

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace harl {

/// Multi-layer perceptron with tanh hidden activations and a linear output
/// layer, trained by explicit backprop + Adam.  Small by design: the paper's
/// PPO actor/critic networks are two-hidden-layer MLPs over schedule
/// observations.
///
/// All parameters live in one flat buffer: per layer, the weights stored
/// input-major ([in x out], so one input's weights to every output are
/// contiguous), then the `out` biases.  Gradients and Adam moments share that
/// layout, so an Adam step is one loop over the buffer.  A training step is
/// zero_grad(ws), forward and backward over the minibatch, adam_step(ws).
///
/// Numerics (the reason batching changes no bit of any result):
///   - forward: out[o] starts at b[o], then adds x[i] * w[i][o] over i
///     ascending;
///   - weight and bias gradients add one sample's term at a time, in row
///     order, onto whatever `zero_grad` and earlier calls left;
///   - the input gradient starts at +0 and adds over outputs ascending;
///   - the Adam update is the textbook per-element expression.
/// The kernels block four terms of one sum per pass and vectorize across
/// independent outputs, so no sum is reassociated; no multiply-add is fused
/// (no -march/-mfma: the x86-64 baseline ISA has no FMA; no fast-math).  Zero output gradients are added, not skipped; for finite
/// activations and weights that leaves every accumulator's bits unchanged (an
/// accumulator that starts at +0 never becomes -0).
class Mlp {
 public:
  /// Scratch for batched passes: every layer's activations of the last
  /// forward (backward reads them), the gradient blocks, and the parameter
  /// gradients that backward accumulates and adam_step consumes.  Gradients
  /// only live from zero_grad to adam_step, so they belong here and not to
  /// the net.  Buffers grow to the largest block seen and are then reused,
  /// so a workspace that has run its largest batch once never allocates
  /// again.  One workspace serves one pass, or one zero_grad ... adam_step
  /// sequence of one net, at a time.
  class Workspace {
   public:
    /// Accumulated parameter gradients, in the net's parameter layout.
    const double* grads() const { return grads_.data(); }

   private:
    friend class Mlp;
    int rows_ = 0;
    std::vector<double> acts_;         ///< [rows x dim] blocks, input first
    std::vector<double> grad_[2];      ///< input gradients of alternate layers
    std::vector<double> weight_rows_;  ///< four outputs' weights, [4 x in]
    std::vector<double> grads_;        ///< parameter gradients
  };

  /// dims = {input, hidden..., output}.
  Mlp(const std::vector<int>& dims, Rng& rng);

  int in_dim() const { return dims_.front(); }
  int out_dim() const { return dims_.back(); }
  int num_layers() const { return static_cast<int>(dims_.size()) - 1; }

  /// Forward `n` rows of `x` ([n x in_dim], row-major).  Returns the output
  /// block [n x out_dim] inside `ws`, valid until the workspace's next pass.
  const double* forward(const double* x, int n, Workspace& ws) const;

  /// Backprop `dout` ([rows x out_dim], one row per row of `ws`'s last
  /// forward), adding parameter gradients into `ws` sample by sample.
  void backward(const double* dout, Workspace& ws) const;

  /// Sizes `ws`'s parameter gradients for this net and sets them to +0.
  void zero_grad(Workspace& ws) const;

  /// One Adam update from the gradients in `ws` (increments the step
  /// counter).
  void adam_step(double lr, const Workspace& ws);

  /// Global L2 norm of the gradients accumulated in `ws`.
  double grad_norm(const Workspace& ws) const;

  std::size_t num_parameters() const { return params_.size(); }

  /// White-box access for tests: the flat parameters and where layer `l`'s
  /// weights ([in x out]) and biases start in them (and in the gradients).
  double* params() { return params_.data(); }
  const double* params() const { return params_.data(); }
  std::size_t weight_offset(int l) const { return offsets_[static_cast<std::size_t>(l)]; }
  std::size_t bias_offset(int l) const {
    const std::size_t in = static_cast<std::size_t>(dims_[static_cast<std::size_t>(l)]);
    return weight_offset(l) + in * static_cast<std::size_t>(dims_[static_cast<std::size_t>(l) + 1]);
  }

 private:
  std::vector<int> dims_;
  std::vector<std::size_t> offsets_;  ///< per layer: start of its weights
  std::vector<double> params_, adam_m_, adam_v_;
  int adam_t_ = 0;
};

}  // namespace harl
