#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/categorical.hpp"
#include "util/logging.hpp"

namespace harl {

namespace {

std::vector<int> mlp_dims(int in, int hidden, int out) { return {in, hidden, hidden, out}; }

/// The calling thread's scratch (see the PpoAgent class comment).  Buffers
/// only grow, so after the largest block a thread has run no call allocates.
struct Scratch {
  Mlp::Workspace ws;  ///< serves the actor's passes, then the critic's
  std::vector<const std::vector<double>*> rows;
  std::vector<double> obs;      ///< gathered rows, [n x obs_dim]
  std::vector<double> probs;    ///< one logits row's probabilities
  std::vector<double> dlogits;  ///< [minibatch x num_logits]
  std::vector<double> dvalues;  ///< [minibatch]
  std::vector<std::size_t> batch;
  std::vector<double> adv;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

template <typename T>
T* grown(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Copies the rows (each `width` long) into s.obs ([n x width]).
const double* gather(Scratch& s, const std::vector<const std::vector<double>*>& obs,
                     int width) {
  double* dst = grown(s.obs, obs.size() * static_cast<std::size_t>(width));
  const double* block = dst;
  for (const std::vector<double>* row : obs) {
    HARL_CHECK(row->size() == static_cast<std::size_t>(width),
               "PpoAgent: observation width mismatch");
    dst = std::copy(row->begin(), row->end(), dst);
  }
  return block;
}

}  // namespace

PpoAgent::PpoAgent(int obs_dim, std::vector<int> head_sizes, PpoConfig cfg,
                   std::uint64_t seed)
    : cfg_(cfg),
      obs_dim_(obs_dim),
      head_sizes_(std::move(head_sizes)),
      num_logits_(std::accumulate(head_sizes_.begin(), head_sizes_.end(), 0)),
      actor_([&] {
        Rng rng(seed);
        return Mlp(mlp_dims(obs_dim, cfg.hidden_dim, num_logits_), rng);
      }()),
      critic_([&] {
        Rng rng(seed ^ 0x5bd1e995ULL);
        return Mlp(mlp_dims(obs_dim, cfg.hidden_dim, 1), rng);
      }()) {
  HARL_CHECK(!head_sizes_.empty(), "PpoAgent needs at least one action head");
}

void PpoAgent::sample_row(const double* logits, const std::vector<bool>& head0_mask,
                          Rng& rng, double* probs, ActResult* res) const {
  res->actions.clear();
  res->logp = 0;
  for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
    const int n = head_sizes_[h];
    const std::vector<bool>* mask =
        (h == 0 && !head0_mask.empty()) ? &head0_mask : nullptr;
    masked_softmax(logits, n, mask, probs);
    int a = sample_categorical(probs, n, rng);
    res->actions.push_back(a);
    res->logp += categorical_log_prob(probs, a);
    logits += n;
  }
}

PpoAgent::ActResult PpoAgent::act(const std::vector<double>& obs,
                                  const std::vector<bool>& head0_mask, Rng& rng) {
  HARL_CHECK(obs.size() == static_cast<std::size_t>(obs_dim_),
             "PpoAgent: observation width mismatch");
  Scratch& s = scratch();
  double* probs = grown(s.probs, static_cast<std::size_t>(num_logits_));
  ActResult res;
  sample_row(actor_.forward(obs.data(), 1, s.ws), head0_mask, rng, probs, &res);
  res.value = critic_.forward(obs.data(), 1, s.ws)[0];
  return res;
}

void PpoAgent::act_batch(const std::vector<const std::vector<double>*>& obs,
                         const std::vector<std::vector<bool>>& head0_masks, Rng& rng,
                         std::vector<ActResult>* out) {
  HARL_CHECK(head0_masks.size() >= obs.size(), "act_batch: one mask per row");
  const int n = static_cast<int>(obs.size());
  Scratch& s = scratch();
  const double* block = gather(s, obs, obs_dim_);
  double* probs = grown(s.probs, static_cast<std::size_t>(num_logits_));
  const double* logits = actor_.forward(block, n, s.ws);
  out->resize(obs.size());
  for (std::size_t k = 0; k < obs.size(); ++k) {
    sample_row(logits + k * static_cast<std::size_t>(num_logits_), head0_masks[k], rng,
               probs, &(*out)[k]);
  }
  const double* vals = critic_.forward(block, n, s.ws);
  for (std::size_t k = 0; k < obs.size(); ++k) (*out)[k].value = vals[k];
}

double PpoAgent::value(const std::vector<double>& obs) {
  HARL_CHECK(obs.size() == static_cast<std::size_t>(obs_dim_),
             "PpoAgent: observation width mismatch");
  return critic_.forward(obs.data(), 1, scratch().ws)[0];
}

void PpoAgent::values(const std::vector<const std::vector<double>*>& obs,
                      std::vector<double>* out) {
  Scratch& s = scratch();
  const double* block = gather(s, obs, obs_dim_);
  const double* vals = critic_.forward(block, static_cast<int>(obs.size()), s.ws);
  out->assign(vals, vals + obs.size());
}

void PpoAgent::store(PpoTransition t) {
  if (buffer_.size() < static_cast<std::size_t>(cfg_.buffer_capacity)) {
    buffer_.push_back(std::move(t));
  } else {
    buffer_[buffer_next_ % buffer_.size()] = std::move(t);
  }
  ++buffer_next_;
}

double PpoAgent::train(Rng& rng) {
  if (buffer_.size() < static_cast<std::size_t>(cfg_.minibatch_size)) return 0;
  double mean_objective = 0;
  int num_updates = 0;
  const std::size_t n = static_cast<std::size_t>(cfg_.minibatch_size);
  const std::size_t width = static_cast<std::size_t>(num_logits_);
  Scratch& s = scratch();
  double* probs = grown(s.probs, width);
  double* dlogits = grown(s.dlogits, n * width);
  double* dvalues = grown(s.dvalues, n);
  std::vector<std::size_t>& batch = s.batch;
  std::vector<double>& adv = s.adv;

  for (int epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
    // Sample one minibatch (with replacement across epochs).
    batch.resize(n);
    for (std::size_t& i : batch) i = rng.pick_index(buffer_.size());

    // Advantages from collection-time values, normalized per batch (Eq. 6).
    adv.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const PpoTransition& t = buffer_[batch[k]];
      adv[k] = advantage(t.reward, t.value, t.next_value);
    }
    double mean = std::accumulate(adv.begin(), adv.end(), 0.0) /
                  static_cast<double>(adv.size());
    double var = 0;
    for (double a : adv) var += (a - mean) * (a - mean);
    double stdev = std::sqrt(var / static_cast<double>(adv.size())) + 1e-8;
    for (double& a : adv) a = (a - mean) / stdev;

    double inv_n = 1.0 / static_cast<double>(n);

    s.rows.clear();
    for (std::size_t i : batch) s.rows.push_back(&buffer_[i].obs);
    const double* block = gather(s, s.rows, obs_dim_);
    actor_.zero_grad(s.ws);
    const double* logits = actor_.forward(block, static_cast<int>(n), s.ws);

    for (std::size_t k = 0; k < n; ++k) {
      const PpoTransition& t = buffer_[batch[k]];
      const double* row = logits + k * width;

      double logp_new = 0;
      std::size_t off = 0;
      for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
        const std::vector<bool>* mask =
            (h == 0 && !t.head0_mask.empty()) ? &t.head0_mask : nullptr;
        masked_softmax(row + off, head_sizes_[h], mask, probs + off);
        logp_new += categorical_log_prob(probs + off, t.actions[h]);
        off += static_cast<std::size_t>(head_sizes_[h]);
      }

      double ratio = std::exp(std::clamp(logp_new - t.logp, -20.0, 20.0));
      double unclipped = ratio * adv[k];
      double clipped =
          std::clamp(ratio, 1.0 - cfg_.clip_eps, 1.0 + cfg_.clip_eps) * adv[k];
      mean_objective += std::min(unclipped, clipped);
      // Gradient flows through logp only when the unclipped branch is active.
      bool pass_gradient = (adv[k] >= 0 && ratio < 1.0 + cfg_.clip_eps) ||
                           (adv[k] < 0 && ratio > 1.0 - cfg_.clip_eps);
      double dlogp = pass_gradient ? -adv[k] * ratio : 0.0;  // d(-objective)/dlogp

      // Loss = -objective - w_ent * H: the loss signs are folded into the
      // coefficients, so categorical_backward's gradient is the loss's.
      double* drow = dlogits + k * width;
      off = 0;
      for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
        const std::vector<bool>* mask =
            (h == 0 && !t.head0_mask.empty()) ? &t.head0_mask : nullptr;
        categorical_backward(probs + off, head_sizes_[h], t.actions[h], dlogp,
                             -cfg_.entropy_weight, mask, drow + off);
        off += static_cast<std::size_t>(head_sizes_[h]);
      }
      for (std::size_t j = 0; j < width; ++j) drow[j] *= inv_n;
    }
    actor_.backward(dlogits, s.ws);
    actor_.adam_step(cfg_.lr_actor, s.ws);

    // Critic: w_MSE * (V(s) - (r + gamma * V(s')))^2.
    critic_.zero_grad(s.ws);
    const double* vals = critic_.forward(block, static_cast<int>(n), s.ws);
    for (std::size_t k = 0; k < n; ++k) {
      const PpoTransition& t = buffer_[batch[k]];
      double target = t.reward + cfg_.gamma * t.next_value;
      dvalues[k] = cfg_.value_loss_weight * 2.0 * (vals[k] - target) * inv_n;
    }
    critic_.backward(dvalues, s.ws);
    critic_.adam_step(cfg_.lr_critic, s.ws);
    num_updates += cfg_.minibatch_size;
  }
  return num_updates > 0 ? mean_objective / num_updates : 0.0;
}

}  // namespace harl
