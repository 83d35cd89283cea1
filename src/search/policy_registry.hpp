#pragma once

/// \file policy_registry.hpp
/// Open string-keyed policy factory (case-insensitive, thread-safe):
/// built-ins self-register; custom policies plug in by name via
/// `SearchOptions::policy_name` with no library edits.  Invariant: the
/// registry name is the only way to name a policy — every policy, built-in
/// or external, is created through it, and it carries the policy's default
/// task selector.  Collaborators: TaskScheduler/make_policy, CLIs.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/search_common.hpp"

namespace harl {

struct SearchOptions;

/// A policy is its registry name ("HARL", "Ansor", ...).  The alias exists
/// only so callers that still spell the type — `std::optional<PolicyKind>
/// kind = policy_kind_from_name(p); quick_options(*kind)` — keep compiling.
using PolicyKind = std::string;

/// String-keyed factory registry of per-subgraph search policies.  Built-in
/// policies register themselves on first use; external code extends the
/// tuner without touching library sources:
///
///   PolicyRegistry::instance().register_policy(
///       "my-policy", [](TaskState* task, const SearchOptions& opts) {
///         return std::make_unique<MyPolicy>(task, opts.seed);
///       });
///   SearchOptions opts = quick_options("my-policy");
///   TuningSession session(net, hw, opts);
///
/// Lookup is case-insensitive ("harl" == "HARL") so registry names
/// round-trip through `--policy=` command-line flags.  All methods are
/// thread-safe: `FleetTuner` instantiates policies from several fleet
/// threads at once.
class PolicyRegistry {
 public:
  /// Factory contract: build a policy for `task`.  `opts` carries the whole
  /// per-task option set; the per-task seed is already derived (task index
  /// folded in), so factories should seed from `opts.seed` alone.
  using Factory = std::function<std::unique_ptr<SearchPolicy>(
      TaskState* task, const SearchOptions& opts)>;

  /// The process-wide registry, with built-ins registered.
  static PolicyRegistry& instance();

  /// Registers `factory` under `name`, with `default_selector` as the task
  /// selector a run of this policy gets when `SearchOptions::task_select_name`
  /// is empty ("" = "sw-ucb").  Returns false (and keeps the existing entry)
  /// when the name — case-insensitively — is already taken.
  bool register_policy(const std::string& name, Factory factory,
                       std::string default_selector = "");

  bool contains(const std::string& name) const;

  /// The task selector registered with policy `name` (case-insensitive):
  /// "sw-ucb" for policies registered without one and for unknown names.
  std::string default_selector(const std::string& name) const;

  /// Instantiates the policy registered under `name` (case-insensitive).
  /// Returns nullptr for unknown names.
  std::unique_ptr<SearchPolicy> create(const std::string& name, TaskState* task,
                                       const SearchOptions& opts) const;

  /// Registered names in their canonical (registration) spelling, sorted.
  std::vector<std::string> names() const;

 private:
  PolicyRegistry() = default;

  struct Entry {
    std::string canonical_name;
    Factory factory;
    std::string default_selector;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;  ///< keyed lowercase
};

/// The canonical (registration) spelling of policy `name`, looked up
/// case-insensitively ("harl", "HARL" and "Harl" all give "HARL");
/// std::nullopt for unregistered names.
std::optional<std::string> policy_kind_from_name(const std::string& name);

}  // namespace harl
