#include "search/flextensor_search.hpp"

#include <algorithm>

namespace harl {

FlextensorSearchPolicy::FlextensorSearchPolicy(TaskState* task, FlextensorConfig cfg)
    : task_(task), cfg_(cfg), fx_(&task->hardware()), rng_(cfg.seed ^ 0x464c58ULL) {}

std::vector<MeasuredRecord> FlextensorSearchPolicy::tune_round(Measurer& measurer,
                                                               int /*num_measures*/) {
  const Sketch& sketch = task_->sketch(0);  // fixed template
  const ActionSpace& space = task_->space(0);

  if (!agent_) {
    Rng probe(cfg_.seed ^ 0x77ULL);
    Schedule sample = random_schedule(sketch, space.num_unroll_options(), probe);
    int obs_dim = static_cast<int>(rl_observation(fx_, space, sample).size());
    auto sizes = space.head_sizes();
    agent_ = std::make_unique<PpoAgent>(
        obs_dim, std::vector<int>(sizes.begin(), sizes.end()), cfg_.ppo, cfg_.seed);
  }

  std::vector<MeasuredRecord> all_records;
  for (int track = 0; track < cfg_.tracks; ++track) {
    Schedule cur = random_schedule(sketch, space.num_unroll_options(), rng_);
    std::vector<double> obs = rl_observation(fx_, space, cur);
    MeasureResult first = measurer.measure_one(cur);
    double cur_time = first.time_ms;
    all_records.push_back({cur, first.time_ms, first.trial_index, first.cached});

    double best_time = cur_time;
    int best_step = 0;
    // V(obs) from the previous step's value(next_obs): act() reuses it unless
    // the train() in between updated the critic.
    double obs_value = 0;
    PpoKnownValues known;
    for (int step = 1; step <= cfg_.track_length; ++step) {
      std::vector<bool> mask;
      space.tile_action_mask(cur, &mask);
      PpoAgent::ActResult act = agent_->act(obs, mask, rng_, known);
      Schedule next = cur;
      JointAction ja{};
      for (int h = 0; h < kNumActionHeads; ++h) {
        ja[static_cast<std::size_t>(h)] = act.actions[static_cast<std::size_t>(h)];
      }
      space.apply(&next, ja);
      MeasureResult stepped = measurer.measure_one(next);
      double next_time = stepped.time_ms;
      all_records.push_back({next, stepped.time_ms, stepped.trial_index, stepped.cached});

      std::vector<double> next_obs = rl_observation(fx_, space, next);
      // Reward: measured relative speedup (Flextensor learns from hardware).
      double reward = (cur_time - next_time) / std::max(next_time, 1e-9);
      double next_value = agent_->value(next_obs);
      obs_value = next_value;
      known = {&obs_value, agent_->critic_updates()};

      PpoTransition tr;
      tr.obs = std::move(obs);
      tr.actions = act.actions;
      tr.logp = act.logp;
      tr.reward = reward;
      tr.value = act.value;
      tr.next_value = next_value;
      tr.head0_mask = std::move(mask);
      agent_->store(std::move(tr));
      if (step % cfg_.ppo.train_interval == 0) agent_->train(rng_);

      cur = std::move(next);
      obs = std::move(next_obs);
      cur_time = next_time;
      if (next_time < best_time) {
        best_time = next_time;
        best_step = step;
      }
    }
    critical_positions_.push_back(static_cast<double>(best_step) /
                                  static_cast<double>(cfg_.track_length));
  }

  task_->commit_measurements(all_records);
  return all_records;
}

}  // namespace harl
