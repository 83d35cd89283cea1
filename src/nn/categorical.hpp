#pragma once

/// \file categorical.hpp
/// Categorical distribution head: masked softmax sampling with log-probs
/// and entropy for the PPO actor.  Invariant: sampling is deterministic
/// given the Rng state and mask.  Collaborators: Mlp, PPO.

#include <vector>

#include "util/rng.hpp"

namespace harl {

/// Categorical distribution utilities for policy heads.  Each works on one
/// head's span of `n` entries inside a row of logits, so callers run them
/// over a workspace block without copying rows out.
///
/// Probabilities come from a numerically stable masked softmax; `mask`
/// entries set to false force probability 0 (used for illegal tile moves,
/// e.g. cross-axis factor transfers).  All functions assume at least one
/// valid action.

/// Stable softmax of logits[0, n) into probs[0, n); invalid entries (mask
/// false) get probability zero.  Pass nullptr for an unmasked softmax.
void masked_softmax(const double* logits, int n, const std::vector<bool>* mask,
                    double* probs);

/// Sample an index from probs[0, n).
int sample_categorical(const double* probs, int n, Rng& rng);

/// log p(action); clamped to avoid -inf on underflow.
double categorical_log_prob(const double* probs, int action);

/// Shannon entropy -sum p log p over probs[0, n).  When `logp` is non-null,
/// log p_k is also stored in logp[k] for every p_k > 1e-12 (other entries are
/// left as they are), so a caller computes each log once.
double categorical_entropy(const double* probs, int n, double* logp = nullptr);

/// Writes the gradient of  coef_logp * log p(action) + coef_entropy * H(p)
/// with respect to the *logits* into dlogits[0, n), given the softmax
/// probabilities:
///   d log p(a) / d logit_k = 1{k==a} - p_k
///   d H / d logit_k        = -p_k * (log p_k + H)
/// Masked-out entries receive zero gradient.
void categorical_backward(const double* probs, int n, int action, double coef_logp,
                          double coef_entropy, const std::vector<bool>* mask,
                          double* dlogits);

}  // namespace harl
