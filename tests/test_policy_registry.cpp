#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "search/policy_registry.hpp"
#include "search/task_scheduler.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

const char* const kBuiltins[] = {"HARL",       "Hierarchical-RL", "Ansor",
                                 "Flextensor", "AutoTVM-SA",      "Random"};

TEST(PolicyNameLookup, CanonicalNamesLookUpToThemselves) {
  for (const char* name : kBuiltins) {
    auto canonical = policy_kind_from_name(name);
    ASSERT_TRUE(canonical.has_value()) << name;
    EXPECT_EQ(*canonical, name);
  }
}

TEST(PolicyNameLookup, CaseInsensitiveAndUnknown) {
  EXPECT_EQ(policy_kind_from_name("harl"), std::string("HARL"));
  EXPECT_EQ(policy_kind_from_name("ANSOR"), std::string("Ansor"));
  EXPECT_EQ(policy_kind_from_name("AuToTvM-sA"), std::string("AutoTVM-SA"));
  EXPECT_FALSE(policy_kind_from_name("").has_value());
  EXPECT_FALSE(policy_kind_from_name("HARLx").has_value());
  EXPECT_FALSE(policy_kind_from_name("HAR").has_value());
  EXPECT_FALSE(policy_kind_from_name("autotvm").has_value());
}

TEST(PolicyRegistryTest, BuiltinsRegistered) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  for (const char* name : kBuiltins) EXPECT_TRUE(reg.contains(name)) << name;
  EXPECT_TRUE(reg.contains("harl"));  // case-insensitive
  EXPECT_FALSE(reg.contains("no-such-policy"));
  EXPECT_GE(reg.names().size(), 6u);
}

TEST(PolicyRegistryTest, BuiltinDefaultSelectors) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.default_selector("HARL"), "sw-ucb");
  EXPECT_EQ(reg.default_selector("Hierarchical-RL"), "sw-ucb");
  EXPECT_EQ(reg.default_selector("Ansor"), "greedy-gradient");
  EXPECT_EQ(reg.default_selector("ansor"), "greedy-gradient");
  EXPECT_EQ(reg.default_selector("Flextensor"), "round-robin");
  EXPECT_EQ(reg.default_selector("AutoTVM-SA"), "round-robin");
  EXPECT_EQ(reg.default_selector("Random"), "round-robin");
  EXPECT_EQ(reg.default_selector("no-such-policy"), "sw-ucb");
  for (const char* name : kBuiltins) {
    EXPECT_EQ(quick_options(name).effective_task_select_name(),
              reg.default_selector(name))
        << name;
  }
}

TEST(PolicyRegistryTest, RegisteredDefaultSelectorIsTheRunDefault) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  auto factory = [](TaskState* task, const SearchOptions& opts) {
    return std::make_unique<RandomSearchPolicy>(task, opts.seed);
  };
  // A repeated run of this test finds the names taken; the entries match.
  reg.register_policy("test-default-sw-ucb", factory);
  reg.register_policy("test-default-greedy", factory, "greedy-gradient");
  EXPECT_EQ(quick_options("test-default-sw-ucb").effective_task_select_name(),
            "sw-ucb");
  SearchOptions opts = quick_options("TEST-DEFAULT-GREEDY");
  EXPECT_EQ(opts.effective_task_select_name(), "greedy-gradient");
  opts.task_select_name = "round-robin";  // an explicit name wins
  EXPECT_EQ(opts.effective_task_select_name(), "round-robin");
}

TEST(PolicyRegistryTest, DuplicateRegistrationRejected) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_FALSE(reg.register_policy(
      "HARL", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
      }));
  EXPECT_FALSE(reg.register_policy(
      "harl", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
      }));
  EXPECT_FALSE(reg.register_policy("", nullptr));
}

TEST(PolicyRegistryTest, MakePolicyResolvesNamesCaseInsensitively) {
  Subgraph g = make_gemm(32, 32, 32, 1, "name_gemm");
  HardwareConfig hw = HardwareConfig::test_config();
  TaskState task(&g, &hw);
  SearchOptions opts = quick_options("Ansor", 3);
  auto canonical = make_policy(std::string("Ansor"), &task, opts);
  auto lowercase = make_policy(std::string("ansor"), &task, opts);
  ASSERT_NE(canonical, nullptr);
  ASSERT_NE(lowercase, nullptr);
  EXPECT_STREQ(canonical->name(), lowercase->name());
  EXPECT_THROW(make_policy(std::string("autotvm"), &task, opts),
               std::invalid_argument);
}

// ---- the acceptance criterion: a policy registered from test code (outside
// src/search/) runs end-to-end through TuningSession without touching any
// library source. ---------------------------------------------------------

/// A minimal but real policy: sample random schedules of a random sketch,
/// measure the requested batch, commit.  Lives entirely in this test file.
class TestRandomWalkPolicy : public SearchPolicy {
 public:
  TestRandomWalkPolicy(TaskState* task, std::uint64_t seed)
      : task_(task), rng_(seed ^ 0x7e57ULL) {}

  const char* name() const override { return "test-random-walk"; }

  std::vector<MeasuredRecord> tune_round(Measurer& measurer,
                                         int num_measures) override {
    std::vector<Schedule> scheds;
    scheds.reserve(static_cast<std::size_t>(num_measures));
    int unroll = task_->hardware().num_unroll_options();
    for (int i = 0; i < num_measures; ++i) {
      int u = rng_.next_int(0, task_->num_sketches() - 1);
      scheds.push_back(random_schedule(task_->sketch(u), unroll, rng_));
    }
    return measure_and_commit(*task_, measurer, scheds);
  }

 private:
  TaskState* task_;
  Rng rng_;
};

TEST(PolicyRegistryTest, ExternalPolicyRunsEndToEnd) {
  bool registered = PolicyRegistry::instance().register_policy(
      "test-random-walk", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<TestRandomWalkPolicy>(task, opts.seed);
      });
  // Other tests in this binary may have registered it already; both are fine
  // as long as the name resolves.
  (void)registered;
  ASSERT_TRUE(PolicyRegistry::instance().contains("test-random-walk"));

  Network net;
  net.name = "external_policy_net";
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "xp_gemm", 2.0));
  net.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "xp_ew", 1.0));

  SearchOptions opts = quick_options("test-random-walk", 17);
  opts.measures_per_round = 5;

  HardwareConfig hw = HardwareConfig::xeon_6226r();
  TuningSession session(net, hw, opts);
  EXPECT_STREQ(session.scheduler().policy(0).name(), "test-random-walk");
  session.run(40);

  EXPECT_TRUE(std::isfinite(session.latency_ms()));
  EXPECT_GE(session.measurer().trials_used(), 40);
  EXPECT_FALSE(session.scheduler().round_log().empty());
  EXPECT_EQ(session.scheduler().options().effective_policy_name(),
            "test-random-walk");
}

TEST(PolicyRegistryTest, UnknownPolicyNameThrows) {
  Network net;
  net.subgraphs.push_back(make_gemm(32, 32, 32, 1, "die_gemm"));
  SearchOptions opts = quick_options("definitely-not-registered", 1);
  HardwareConfig hw = HardwareConfig::test_config();
  try {
    TuningSession session(net, hw, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Recoverable user-input error; the message lists what *is* registered.
    EXPECT_NE(std::string(e.what()).find("unknown policy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("HARL"), std::string::npos);
  }
}

}  // namespace
}  // namespace harl
