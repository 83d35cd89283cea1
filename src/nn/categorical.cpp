#include "nn/categorical.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace harl {

void masked_softmax(const double* logits, int n, const std::vector<bool>* mask,
                    double* probs) {
  double max_logit = -1e300;
  bool any = false;
  for (int i = 0; i < n; ++i) {
    if (mask != nullptr && !(*mask)[static_cast<std::size_t>(i)]) continue;
    max_logit = std::max(max_logit, logits[i]);
    any = true;
  }
  HARL_CHECK(any, "masked_softmax: no valid action");
  double z = 0;
  for (int i = 0; i < n; ++i) {
    if (mask != nullptr && !(*mask)[static_cast<std::size_t>(i)]) {
      probs[i] = 0.0;
      continue;
    }
    probs[i] = std::exp(logits[i] - max_logit);
    z += probs[i];
  }
  for (int i = 0; i < n; ++i) probs[i] /= z;
}

int sample_categorical(const double* probs, int n, Rng& rng) {
  double r = rng.next_double();
  double acc = 0;
  int last_valid = 0;
  for (int i = 0; i < n; ++i) {
    if (probs[i] <= 0) continue;
    last_valid = i;
    acc += probs[i];
    if (r < acc) return i;
  }
  return last_valid;
}

double categorical_log_prob(const double* probs, int action) {
  return std::log(std::max(probs[action], 1e-12));
}

double categorical_entropy(const double* probs, int n, double* logp) {
  double h = 0;
  for (int k = 0; k < n; ++k) {
    if (probs[k] > 1e-12) {
      double lp = std::log(probs[k]);
      if (logp != nullptr) logp[k] = lp;
      h -= probs[k] * lp;
    }
  }
  return h;
}

void categorical_backward(const double* probs, int n, int action, double coef_logp,
                          double coef_entropy, const std::vector<bool>* mask,
                          double* dlogits) {
  // dlogits first holds log p (written by the entropy pass), then is
  // overwritten entry by entry with the gradient.
  double h = coef_entropy != 0.0 ? categorical_entropy(probs, n, dlogits) : 0.0;
  for (int k = 0; k < n; ++k) {
    if (mask != nullptr && !(*mask)[static_cast<std::size_t>(k)]) {
      dlogits[k] = 0.0;
      continue;
    }
    double g = 0;
    if (coef_logp != 0.0) {
      double onehot = (k == action) ? 1.0 : 0.0;
      g += coef_logp * (onehot - probs[k]);
    }
    if (coef_entropy != 0.0 && probs[k] > 1e-12) {
      g += coef_entropy * (-probs[k] * (dlogits[k] + h));
    }
    dlogits[k] = g;
  }
}

}  // namespace harl
