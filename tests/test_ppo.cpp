#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rl/ppo.hpp"

namespace harl {
namespace {

PpoConfig small_config() {
  PpoConfig cfg;
  cfg.hidden_dim = 32;
  cfg.minibatch_size = 32;
  cfg.update_epochs = 4;
  cfg.buffer_capacity = 1024;
  return cfg;
}

TEST(Ppo, AdvantageIsOneStepTd) {
  PpoAgent agent(2, {3}, small_config(), 1);
  // A = r + gamma * V(s') - V(s) with gamma = 0.9 (Table 5).
  EXPECT_NEAR(agent.advantage(1.0, 0.5, 2.0), 1.0 + 0.9 * 2.0 - 0.5, 1e-12);
}

TEST(Ppo, ActReturnsValidActionsAndLogp) {
  PpoAgent agent(4, {5, 3}, small_config(), 2);
  Rng rng(1);
  std::vector<double> obs = {0.1, 0.2, -0.3, 0.4};
  for (int i = 0; i < 50; ++i) {
    auto res = agent.act(obs, {}, rng);
    ASSERT_EQ(res.actions.size(), 2u);
    ASSERT_GE(res.actions[0], 0);
    ASSERT_LT(res.actions[0], 5);
    ASSERT_GE(res.actions[1], 0);
    ASSERT_LT(res.actions[1], 3);
    ASSERT_LE(res.logp, 0.0);
    ASSERT_TRUE(std::isfinite(res.value));
  }
}

TEST(Ppo, MaskExcludesActions) {
  PpoAgent agent(2, {4}, small_config(), 3);
  Rng rng(2);
  std::vector<bool> mask = {false, true, false, true};
  std::vector<double> obs = {1.0, -1.0};
  for (int i = 0; i < 100; ++i) {
    auto res = agent.act(obs, mask, rng);
    ASSERT_TRUE(res.actions[0] == 1 || res.actions[0] == 3);
  }
}

TEST(Ppo, TrainIsNoopWhileBufferSmall) {
  PpoAgent agent(2, {3}, small_config(), 4);
  Rng rng(3);
  EXPECT_EQ(agent.train(rng), 0.0);
  EXPECT_EQ(agent.buffer_size(), 0u);
}

TEST(Ppo, BufferIsBoundedRing) {
  PpoConfig cfg = small_config();
  cfg.buffer_capacity = 16;
  PpoAgent agent(1, {2}, cfg, 5);
  for (int i = 0; i < 100; ++i) {
    PpoTransition t;
    t.obs = {0.0};
    t.actions = {0};
    agent.store(std::move(t));
  }
  EXPECT_EQ(agent.buffer_size(), 16u);
}

/// PPO solves a contextual bandit: obs in {(1,0), (0,1)}; the rewarded
/// action equals the active context bit. Random policy reward = 0.5; a
/// learning agent should exceed 0.9.
TEST(Ppo, LearnsContextualBandit) {
  PpoConfig cfg = small_config();
  cfg.entropy_weight = 0.005;
  PpoAgent agent(2, {2}, cfg, 6);
  Rng rng(7);

  auto run_epoch = [&](bool train) {
    double total = 0;
    const int steps = 256;
    for (int i = 0; i < steps; ++i) {
      int ctx = rng.next_bool() ? 1 : 0;
      std::vector<double> obs = {ctx == 0 ? 1.0 : 0.0, ctx == 1 ? 1.0 : 0.0};
      auto res = agent.act(obs, {}, rng);
      double reward = res.actions[0] == ctx ? 1.0 : 0.0;
      total += reward;
      if (train) {
        PpoTransition t;
        t.obs = obs;
        t.actions = res.actions;
        t.logp = res.logp;
        t.reward = reward;
        t.value = res.value;
        t.next_value = 0.0;  // episodic single-step
        agent.store(std::move(t));
        if (i % 8 == 0) agent.train(rng);
      }
    }
    return total / steps;
  };

  for (int epoch = 0; epoch < 12; ++epoch) run_epoch(true);
  double final_reward = run_epoch(false);
  EXPECT_GT(final_reward, 0.9);
}

/// Multi-head credit assignment: reward requires head 0 correct AND head 1
/// correct; both heads must learn jointly through the summed log-prob.
TEST(Ppo, LearnsJointMultiHeadAction) {
  PpoConfig cfg = small_config();
  cfg.entropy_weight = 0.003;
  PpoAgent agent(1, {3, 3}, cfg, 8);
  Rng rng(9);

  auto run_epoch = [&](bool train) {
    double total = 0;
    const int steps = 256;
    for (int i = 0; i < steps; ++i) {
      std::vector<double> obs = {1.0};
      auto res = agent.act(obs, {}, rng);
      double reward = (res.actions[0] == 2 && res.actions[1] == 0) ? 1.0 : 0.0;
      total += reward;
      if (train) {
        PpoTransition t;
        t.obs = obs;
        t.actions = res.actions;
        t.logp = res.logp;
        t.reward = reward;
        t.value = res.value;
        t.next_value = 0.0;
        agent.store(std::move(t));
        if (i % 8 == 0) agent.train(rng);
      }
    }
    return total / steps;
  };

  for (int epoch = 0; epoch < 20; ++epoch) run_epoch(true);
  // Random chance is 1/9; learned policy should be far above.
  EXPECT_GT(run_epoch(false), 0.6);
}

TEST(Ppo, ValueLearnsReturns) {
  PpoConfig cfg = small_config();
  PpoAgent agent(1, {2}, cfg, 10);
  Rng rng(11);
  // Constant reward 1 with next_value 0: the TD target is exactly 1.
  std::vector<double> obs = {1.0};
  for (int i = 0; i < 600; ++i) {
    auto res = agent.act(obs, {}, rng);
    PpoTransition t;
    t.obs = obs;
    t.actions = res.actions;
    t.logp = res.logp;
    t.reward = 1.0;
    t.value = res.value;
    t.next_value = 0.0;
    agent.store(std::move(t));
    if (i % 4 == 0) agent.train(rng);
  }
  EXPECT_NEAR(agent.value(obs), 1.0, 0.2);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Rows of a 13-wide observation with head sizes {9, 3, 3, 3}: every third
/// row carries a head-0 mask, the rest none.
struct Rows {
  std::vector<std::vector<double>> obs;
  std::vector<std::vector<bool>> masks;
  std::vector<const std::vector<double>*> ptrs;
};

Rows make_rows(int n, Rng& rng) {
  Rows r;
  for (int k = 0; k < n; ++k) {
    std::vector<double> o;
    for (int i = 0; i < 13; ++i) o.push_back(rng.next_range(-2, 2));
    r.obs.push_back(std::move(o));
    std::vector<bool> m;
    if (k % 3 == 0) {
      for (int a = 0; a < 9; ++a) m.push_back(a % 2 == 0 || a == 7);
    }
    r.masks.push_back(std::move(m));
  }
  for (const std::vector<double>& o : r.obs) r.ptrs.push_back(&o);
  return r;
}

/// Trains both agents identically so the comparison runs on updated weights
/// as well as on the initial ones.
void train_both(PpoAgent* a, PpoAgent* b, Rng* data) {
  for (int i = 0; i < 40; ++i) {
    PpoTransition t;
    for (int d = 0; d < 13; ++d) t.obs.push_back(data->next_range(-1, 1));
    t.actions = {data->next_int(0, 8), data->next_int(0, 2), data->next_int(0, 2),
                 data->next_int(0, 2)};
    t.logp = -3.0;
    t.reward = data->next_normal();
    a->store(t);
    b->store(std::move(t));
  }
  Rng ra(31), rb(31);
  a->train(ra);
  b->train(rb);
}

TEST(Ppo, ActBatchEqualsSequentialActs) {
  PpoConfig cfg = small_config();
  cfg.minibatch_size = 16;
  PpoAgent batched(13, {9, 3, 3, 3}, cfg, 12), sequential(13, {9, 3, 3, 3}, cfg, 12);
  Rng data(13);
  for (int round = 0; round < 2; ++round) {
    if (round == 1) train_both(&batched, &sequential, &data);
    for (int n : {1, 3, 8, 33}) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " n=" << n);
      Rows rows = make_rows(n, data);
      Rng rng_a(100 + n), rng_b(100 + n);
      std::vector<PpoAgent::ActResult> got;
      batched.act_batch(rows.ptrs, rows.masks, rng_a, &got);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        PpoAgent::ActResult want = sequential.act(rows.obs[k], rows.masks[k], rng_b);
        EXPECT_EQ(got[k].actions, want.actions) << "row " << k;
        EXPECT_TRUE(same_bits(got[k].logp, want.logp)) << "row " << k;
        EXPECT_TRUE(same_bits(got[k].value, want.value)) << "row " << k;
      }
      EXPECT_EQ(rng_a.next_u32(), rng_b.next_u32());
    }
  }
}

TEST(Ppo, ValuesEqualsPerRowValue) {
  PpoAgent agent(13, {9, 3, 3, 3}, small_config(), 14);
  Rng data(15);
  for (int n : {1, 3, 8, 33}) {
    Rows rows = make_rows(n, data);
    std::vector<double> got;
    agent.values(rows.ptrs, &got);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      EXPECT_TRUE(same_bits(got[k], agent.value(rows.obs[k]))) << "n=" << n << " row " << k;
    }
  }
}

}  // namespace
}  // namespace harl
