#pragma once

/// \file ppo.hpp
/// PPO actor-critic over schedule modification actions (clipped surrogate,
/// GAE, entropy bonus) — the low level of HARL's hierarchy.  Invariant:
/// updates are deterministic from the seed and minibatch layout.
/// Collaborators: nn (Mlp, Categorical), HarlSearchPolicy.

#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"

namespace harl {

/// PPO hyper-parameters; defaults are the paper's Table 5 values.
struct PpoConfig {
  double lr_actor = 3e-4;        ///< lr_a
  double lr_critic = 1e-3;       ///< lr_c
  double gamma = 0.9;            ///< discount factor of Eq. 6
  double clip_eps = 0.2;         ///< PPO clipped-surrogate epsilon
  double entropy_weight = 0.01;  ///< w_entropy
  double value_loss_weight = 0.5;///< w_MSE
  int train_interval = 2;        ///< T_rl: steps between training calls
  int update_epochs = 4;         ///< minibatches sampled per train()
  int minibatch_size = 64;
  int hidden_dim = 64;
  int buffer_capacity = 4096;
};

/// One recorded environment step (Algorithm 1, line 12).
struct PpoTransition {
  std::vector<double> obs;
  std::vector<int> actions;          ///< one sub-action per head
  double logp = 0;                   ///< joint log-prob at collection time
  double reward = 0;
  double value = 0;                  ///< V(s) at collection time
  double next_value = 0;             ///< V(s')
  std::vector<bool> head0_mask;      ///< legality mask of head 0 (may be empty)
};

/// Critic values already computed by PpoAgent::values()/value(): `v[k]` is
/// V(obs[k]) of the rows about to be acted on, computed when
/// critic_updates() read `at`.  An act uses them in place of a critic pass
/// while the critic has not been updated since (bit-equal by construction),
/// and runs the critic otherwise.
struct PpoKnownValues {
  const double* v = nullptr;
  std::uint64_t at = 0;
};

/// Proximal Policy Optimization agent with a multi-head categorical policy.
///
/// The actor trunk emits one logit block per modification-type head (Table 3:
/// tiling pairs, compute-at, parallel-loops, auto-unroll); the joint action
/// log-probability is the sum over heads.  Head 0 supports a legality mask
/// (invalid tiling moves get probability zero).  The critic is a separate
/// value MLP; both use two tanh hidden layers, trained with Adam.
///
/// Training samples minibatches from a bounded replay buffer (Algorithm 1,
/// lines 14-17) and applies the clipped surrogate objective with an entropy
/// bonus; the critic minimizes MSE against the one-step TD target
/// r + gamma * V(s') (Eq. 6).
///
/// Every pass runs both nets over a block of rows (a single act is a block
/// of one).  The blocks and the nets' workspaces are scratch of the calling
/// thread, shared by every agent on it: a HARL policy keeps one agent per
/// sketch but runs one at a time, so per-agent scratch would only add memory.
/// No call carries scratch state over to the next.
class PpoAgent {
 public:
  PpoAgent(int obs_dim, std::vector<int> head_sizes, PpoConfig cfg,
           std::uint64_t seed);

  struct ActResult {
    std::vector<int> actions;
    double logp = 0;
    double value = 0;
  };

  /// Sample a joint action. `head0_mask` may be empty (no masking).
  ActResult act(const std::vector<double>& obs, const std::vector<bool>& head0_mask,
                Rng& rng, PpoKnownValues known = {});

  /// act() for every row at once: one actor pass and (unless `known` is
  /// fresh) one critic pass over all rows, then sampling row by row, in row
  /// order, from `rng` — so the results and the draws equal sequential act()
  /// calls.  `head0_masks[k]` belongs to `obs[k]` and may be empty.
  void act_batch(const std::vector<const std::vector<double>*>& obs,
                 const std::vector<std::vector<bool>>& head0_masks, Rng& rng,
                 std::vector<ActResult>* out, PpoKnownValues known = {});

  /// Critic estimate V(obs).
  double value(const std::vector<double>& obs);

  /// value() of every row in one critic pass.
  void values(const std::vector<const std::vector<double>*>& obs,
              std::vector<double>* out);

  /// One-step advantage A = r + gamma*V(s') - V(s) (paper Eq. 6).
  double advantage(double reward, double value, double next_value) const {
    return reward + cfg_.gamma * next_value - value;
  }

  void store(PpoTransition t);
  std::size_t buffer_size() const { return buffer_.size(); }

  /// Run `update_epochs` minibatch updates (no-op while the buffer is
  /// smaller than one minibatch). Returns the mean actor objective.  Each
  /// minibatch is one actor and one critic forward/backward over its rows.
  double train(Rng& rng);

  /// Critic updates so far: values computed while this reads the same number
  /// are still the critic's (see PpoKnownValues).
  std::uint64_t critic_updates() const { return critic_updates_; }

  const PpoConfig& config() const { return cfg_; }
  int obs_dim() const { return obs_dim_; }
  const std::vector<int>& head_sizes() const { return head_sizes_; }

 private:
  /// Samples one joint action from the logits row `logits`, using `probs`
  /// (num_logits_ long) as scratch.
  void sample_row(const double* logits, const std::vector<bool>& head0_mask, Rng& rng,
                  double* probs, ActResult* res) const;

  bool fresh(PpoKnownValues known) const {
    return known.v != nullptr && known.at == critic_updates_;
  }

  PpoConfig cfg_;
  int obs_dim_;
  std::vector<int> head_sizes_;
  int num_logits_ = 0;  ///< sum of head_sizes_
  Mlp actor_;
  Mlp critic_;
  std::vector<PpoTransition> buffer_;
  std::size_t buffer_next_ = 0;  ///< ring-buffer write cursor
  std::uint64_t critic_updates_ = 0;
};

}  // namespace harl
