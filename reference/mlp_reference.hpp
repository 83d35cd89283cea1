#pragma once

/// \file mlp_reference.hpp
/// The scalar per-sample MLP that `Mlp`'s batched kernels replaced, kept as
/// the differential oracle `reference::ReferenceMlp`.  Invariant: `Mlp` must
/// match it bit-for-bit on outputs, gradients and Adam steps for every block
/// size (test_nn's batched-equality tests enforce that).

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace harl {
namespace reference {

/// A fully-connected layer with its Adam optimizer state.
///
/// Weights are row-major [out x in]. Gradients accumulate across backward
/// calls until `adam_step` consumes them.
struct ReferenceLayer {
  ReferenceLayer(int in_dim, int out_dim, Rng& rng);

  void forward(const std::vector<double>& x, std::vector<double>* y) const;

  /// Accumulate dL/dW, dL/db given dL/dy and the cached input x; writes
  /// dL/dx into `dx` when non-null.
  void backward(const std::vector<double>& x, const std::vector<double>& dy,
                std::vector<double>* dx);

  void zero_grad();
  void adam_step(double lr, double beta1, double beta2, double eps, int t);

  int in_dim;
  int out_dim;
  std::vector<double> w, b;
  std::vector<double> gw, gb;
  std::vector<double> mw, vw, mb, vb;  // Adam moments
};

/// Per-sample MLP (tanh hidden layers, linear output), one forward and one
/// backward per sample, with the same initialization draws as `Mlp`.
class ReferenceMlp {
 public:
  /// dims = {input, hidden..., output}.
  ReferenceMlp(const std::vector<int>& dims, Rng& rng);

  /// Activations of every layer for one sample; index 0 is the input copy,
  /// back() is the network output.  Needed for backward.
  struct Trace {
    std::vector<std::vector<double>> acts;
  };

  /// Forward one sample; fills `trace` when non-null.
  std::vector<double> forward(const std::vector<double>& x, Trace* trace = nullptr) const;

  /// Backprop dL/dout through the trace, accumulating parameter gradients.
  void backward(const Trace& trace, const std::vector<double>& dout);

  void zero_grad();

  /// One Adam update over all layers (increments the internal step counter).
  void adam_step(double lr);

  std::vector<ReferenceLayer>& layers() { return layers_; }
  const std::vector<ReferenceLayer>& layers() const { return layers_; }

 private:
  std::vector<ReferenceLayer> layers_;
  int adam_t_ = 0;
};

}  // namespace reference
}  // namespace harl
