#include "search/policy_registry.hpp"

#include <algorithm>
#include <cctype>

#include "search/ansor_search.hpp"
#include "search/autotvm_search.hpp"
#include "search/flextensor_search.hpp"
#include "search/harl_search.hpp"
#include "search/random_search.hpp"
#include "search/task_scheduler.hpp"

namespace harl {

namespace {

std::string lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// The shipped policies, each with its default task selector: HARL's SW-UCB
/// bandit, Ansor's greedy gradient, and round-robin for the other baselines.
void register_builtins(PolicyRegistry& reg) {
  reg.register_policy("HARL",
                      [](TaskState* task, const SearchOptions& opts) {
                        HarlConfig cfg = opts.harl;
                        cfg.stop.enabled = true;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<HarlSearchPolicy>(task, cfg);
                      },
                      "sw-ucb");
  // HARL without adaptive stopping (the Figure 7 ablation).
  reg.register_policy("Hierarchical-RL",
                      [](TaskState* task, const SearchOptions& opts) {
                        HarlConfig cfg = opts.harl;
                        cfg.stop.enabled = false;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<HarlSearchPolicy>(task, cfg);
                      },
                      "sw-ucb");
  reg.register_policy("Ansor",
                      [](TaskState* task, const SearchOptions& opts) {
                        AnsorConfig cfg = opts.ansor;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<AnsorSearchPolicy>(task, cfg);
                      },
                      "greedy-gradient");
  reg.register_policy("Flextensor",
                      [](TaskState* task, const SearchOptions& opts) {
                        FlextensorConfig cfg = opts.flextensor;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<FlextensorSearchPolicy>(task, cfg);
                      },
                      "round-robin");
  reg.register_policy("AutoTVM-SA",
                      [](TaskState* task, const SearchOptions& opts) {
                        AutoTvmConfig cfg = opts.autotvm;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<AutoTvmSearchPolicy>(task, cfg);
                      },
                      "round-robin");
  reg.register_policy("Random",
                      [](TaskState* task, const SearchOptions& opts) {
                        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
                      },
                      "round-robin");
}

}  // namespace

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry* reg = [] {
    auto* r = new PolicyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

bool PolicyRegistry::register_policy(const std::string& name, Factory factory,
                                     std::string default_selector) {
  if (name.empty() || !factory) return false;
  if (default_selector.empty()) default_selector = "sw-ucb";
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(
      lowercase(name), Entry{name, std::move(factory), std::move(default_selector)});
  (void)it;
  return inserted;
}

bool PolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(lowercase(name)) > 0;
}

std::string PolicyRegistry::default_selector(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lowercase(name));
  return it == entries_.end() ? "sw-ucb" : it->second.default_selector;
}

std::unique_ptr<SearchPolicy> PolicyRegistry::create(
    const std::string& name, TaskState* task, const SearchOptions& opts) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(lowercase(name));
    if (it == entries_.end()) return nullptr;
    factory = it->second.factory;  // copy so creation runs unlocked
  }
  return factory(task, opts);
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& kv : entries_) out.push_back(kv.second.canonical_name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> policy_kind_from_name(const std::string& name) {
  const std::string key = lowercase(name);
  for (std::string& canonical : PolicyRegistry::instance().names()) {
    if (lowercase(canonical) == key) return canonical;
  }
  return std::nullopt;
}

}  // namespace harl
