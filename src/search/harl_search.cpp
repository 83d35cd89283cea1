#include "search/harl_search.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace harl {

namespace {

/// One schedule track (a search path from one initial schedule, Figure 3).
struct Track {
  Schedule sched;
  std::vector<double> obs;
  double score = 0;       ///< cost-model score of the current state
  double advantage = 0;   ///< latest one-step advantage (Eq. 6)
  int steps = 0;
  int best_step = 0;
  double best_score = -1;
};

}  // namespace

HarlSearchPolicy::HarlSearchPolicy(TaskState* task, HarlConfig cfg)
    : task_(task),
      cfg_(cfg),
      sketch_mab_(task->num_sketches(), cfg.sketch_ucb),
      fx_(&task->hardware()),
      rng_(cfg.seed ^ 0x4841524cULL) {
  agents_.resize(static_cast<std::size_t>(task->num_sketches()));
}

PpoAgent& HarlSearchPolicy::agent_for(int sketch_id) {
  auto& slot = agents_[static_cast<std::size_t>(sketch_id)];
  if (!slot) {
    const ActionSpace& space = task_->space(sketch_id);
    // Observation dimension probes one sample schedule.
    Rng probe(cfg_.seed ^ 0x0b5ULL);
    Schedule sample = random_schedule(task_->sketch(sketch_id),
                                      space.num_unroll_options(), probe);
    int obs_dim = static_cast<int>(rl_observation(fx_, space, sample).size());
    auto sizes = space.head_sizes();
    std::vector<int> head_sizes(sizes.begin(), sizes.end());
    slot = std::make_unique<PpoAgent>(obs_dim, head_sizes, cfg_.ppo,
                                      cfg_.seed + static_cast<std::uint64_t>(sketch_id));
  }
  return *slot;
}

std::vector<MeasuredRecord> HarlSearchPolicy::tune_round(Measurer& measurer,
                                                         int num_measures) {
  // --- Sketch selection (Section 4.1) --------------------------------------
  // The MAB ablation falls back to Ansor's time-independent uniform choice.
  int u = cfg_.use_sketch_mab ? sketch_mab_.select()
                              : rng_.next_int(0, task_->num_sketches() - 1);
  const Sketch& sketch = task_->sketch(u);
  const ActionSpace& space = task_->space(u);
  PpoAgent* agent_ptr = cfg_.use_rl_policy ? &agent_for(u) : nullptr;
  XgbCostModel& cost = task_->cost_model();

  // --- PHASE 1: parameter modification episode -----------------------------
  std::vector<Track> tracks(static_cast<std::size_t>(cfg_.stop.initial_tracks));
  {
    std::vector<Schedule> inits;
    inits.reserve(tracks.size());
    for (Track& t : tracks) {
      t.sched = random_schedule(sketch, space.num_unroll_options(), rng_);
      inits.push_back(t.sched);
    }
    std::vector<double> scores = cost.predict_batch(inits);
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      tracks[i].score = scores[i];
      tracks[i].best_score = scores[i];
      tracks[i].obs = rl_observation(fx_, space, tracks[i].sched);
    }
  }

  std::vector<ScoredCandidate> candidates;
  candidates.reserve(static_cast<std::size_t>(adaptive_visit_budget(cfg_.stop)) +
                     tracks.size());
  for (const Track& t : tracks) candidates.push_back({t.sched, t.score});

  // --- Value-guided hierarchical expansion (measurement economy) -----------
  // Score each initial track's decided *prefix* with the value head and keep
  // only the beam predicted to reach the best final time; the pruned inits
  // stay in `candidates` (already scored — still eligible for measurement)
  // but never pay the modification-episode cost.  beam_select's tie order is
  // deterministic, so the schedule stream stays a pure function of run
  // identity.
  const ValueGuide* guide = task_->value_guide();
  if (guide != nullptr && guide->has_model() &&
      static_cast<int>(tracks.size()) > guide->beam_width()) {
    int depth = ValueGuide::default_prefix_depth(task_->graph().num_stages());
    std::vector<Schedule> init_scheds;
    init_scheds.reserve(tracks.size());
    for (const Track& t : tracks) init_scheds.push_back(t.sched);
    std::vector<double> values = guide->score_prefixes(init_scheds, depth);
    std::vector<int> keep = ValueGuide::beam_select(values, guide->beam_width());
    std::vector<Track> pruned;
    pruned.reserve(keep.size());
    for (int i : keep) pruned.push_back(std::move(tracks[static_cast<std::size_t>(i)]));
    tracks = std::move(pruned);
  }

  std::vector<int> alive(tracks.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<int>(i);

  const int fixed_len = fixed_length_for_budget(cfg_.stop);
  int global_step = 0;
  last_round_max_len_ = 0;

  auto finish_track = [&](const Track& t) {
    if (t.steps > 0) {
      critical_positions_.push_back(static_cast<double>(t.best_step) /
                                    static_cast<double>(t.steps));
    }
    last_round_max_len_ = std::max(last_round_max_len_, t.steps);
  };

  // Per-window scratch, hoisted so every step reuses the same schedule /
  // observation / mask buffers instead of reallocating them (the loop runs
  // hundreds of times per round; Schedule copies are the dominant churn).
  std::vector<Schedule> next_scheds;
  std::vector<std::vector<double>> next_obs;
  std::vector<const std::vector<double>*> obs_rows;
  std::vector<PpoAgent::ActResult> acts;
  std::vector<std::vector<bool>> masks;
  std::vector<double> next_scores;
  std::vector<double> next_values;
  std::vector<int> valid;
  std::vector<double> advantages;

  bool episode_done = false;
  while (!episode_done) {
    // One lambda-window of modification steps on all alive tracks.  Each
    // step acts for every alive track in one batched actor/critic pass.  The
    // masks, moves and observations draw nothing from rng_, so sampling the
    // tracks in order draws exactly what one act() per track drew.
    for (int w = 0; w < cfg_.stop.window && !episode_done; ++w) {
      next_scheds.resize(alive.size());
      next_obs.resize(alive.size());
      acts.resize(alive.size());
      masks.resize(alive.size());

      for (std::size_t k = 0; k < alive.size(); ++k) {
        space.tile_action_mask(tracks[static_cast<std::size_t>(alive[k])].sched, &masks[k]);
      }
      if (cfg_.use_rl_policy) {
        obs_rows.clear();
        for (int id : alive) obs_rows.push_back(&tracks[static_cast<std::size_t>(id)].obs);
        agent_ptr->act_batch(obs_rows, masks, rng_, &acts);
      } else {
        // RL ablation: uniform random valid sub-action per head.
        for (std::size_t k = 0; k < alive.size(); ++k) {
          valid.clear();
          for (std::size_t a = 0; a < masks[k].size(); ++a) {
            if (masks[k][a]) valid.push_back(static_cast<int>(a));
          }
          acts[k].actions = {valid[rng_.pick_index(valid.size())],
                             rng_.next_int(0, kDeltaHeadSize - 1),
                             rng_.next_int(0, kDeltaHeadSize - 1),
                             rng_.next_int(0, kDeltaHeadSize - 1)};
          acts[k].logp = 0;
          acts[k].value = 0;
        }
      }
      for (std::size_t k = 0; k < alive.size(); ++k) {
        next_scheds[k] = tracks[static_cast<std::size_t>(alive[k])].sched;  // reused buffer
        JointAction ja{};
        for (int h = 0; h < kNumActionHeads; ++h) ja[static_cast<std::size_t>(h)] =
            acts[k].actions[static_cast<std::size_t>(h)];
        space.apply(&next_scheds[k], ja);
        rl_observation_into(fx_, space, next_scheds[k], next_obs[k]);
      }

      next_scores = cost.predict_batch(next_scheds);
      if (cfg_.use_rl_policy) {
        obs_rows.clear();
        for (const std::vector<double>& o : next_obs) obs_rows.push_back(&o);
        agent_ptr->values(obs_rows, &next_values);
      }

      for (std::size_t k = 0; k < alive.size(); ++k) {
        Track& t = tracks[static_cast<std::size_t>(alive[k])];
        double reward =
            (next_scores[k] - t.score) / std::max(t.score, XgbCostModel::kMinScore);
        if (cfg_.use_rl_policy) {
          double next_value = next_values[k];
          t.advantage = agent_ptr->advantage(reward, acts[k].value, next_value);

          PpoTransition tr;
          tr.obs = std::move(t.obs);
          tr.actions = acts[k].actions;
          tr.logp = acts[k].logp;
          tr.reward = reward;
          tr.value = acts[k].value;
          tr.next_value = next_value;
          tr.head0_mask = std::move(masks[k]);
          agent_ptr->store(std::move(tr));
        } else {
          // Without the critic, the elimination ranking falls back to the
          // raw one-step reward.
          t.advantage = reward;
        }

        candidates.push_back({next_scheds[k], next_scores[k]});
        // Swap (not move) so the track's old buffers stay live for reuse on
        // the next step.
        std::swap(t.sched, next_scheds[k]);
        std::swap(t.obs, next_obs[k]);
        t.score = next_scores[k];
        ++t.steps;
        if (next_scores[k] > t.best_score) {
          t.best_score = next_scores[k];
          t.best_step = t.steps;
        }
      }

      ++global_step;
      if (cfg_.use_rl_policy && global_step % cfg_.ppo.train_interval == 0) {
        agent_ptr->train(rng_);
      }
      if (!cfg_.stop.enabled && global_step >= fixed_len) episode_done = true;
    }
    if (episode_done) break;

    if (cfg_.stop.enabled) {
      // --- Adaptive stopping (Section 5): advantage-ranked elimination ----
      if (static_cast<int>(alive.size()) <= cfg_.stop.min_tracks) break;
      advantages.resize(alive.size());
      for (std::size_t k = 0; k < alive.size(); ++k) {
        advantages[k] = tracks[static_cast<std::size_t>(alive[k])].advantage;
      }
      std::vector<int> kill =
          select_eliminations(advantages, cfg_.stop.elimination, cfg_.stop.min_tracks);
      if (kill.empty()) break;
      std::vector<int> survivors;
      survivors.reserve(alive.size() - kill.size());
      std::size_t ki = 0;
      for (std::size_t k = 0; k < alive.size(); ++k) {
        if (ki < kill.size() && static_cast<int>(k) == kill[ki]) {
          finish_track(tracks[static_cast<std::size_t>(alive[k])]);
          ++ki;
        } else {
          survivors.push_back(alive[k]);
        }
      }
      alive = std::move(survivors);
    }
  }
  for (int id : alive) finish_track(tracks[static_cast<std::size_t>(id)]);

  // --- PHASE 2: top-K selection and measurement -----------------------------
  std::vector<Schedule> to_measure =
      select_top_k(*task_, std::move(candidates), num_measures, cfg_.measure_epsilon,
                   rng_);
  std::vector<MeasuredRecord> records = measure_and_commit(*task_, measurer, to_measure);

  // --- Sketch bandit update (Eq. 2): normalized max performance ------------
  if (cfg_.use_sketch_mab) {
    if (!records.empty() && task_->has_best()) {
      double round_best = records.front().time_ms;
      for (const MeasuredRecord& r : records) {
        round_best = std::min(round_best, r.time_ms);
      }
      double reward = task_->best_time_ms() / round_best;  // in (0, 1]
      sketch_mab_.update(u, reward);
    } else {
      sketch_mab_.update(u, 0.0);
    }
  }
  return records;
}

}  // namespace harl
