#pragma once

/// \file tuning.hpp
/// TuningSession — the library's primary entry point: owns network,
/// simulated hardware, measurer, and task scheduler for one auto-scheduling
/// run, plus the curve metrics (`trials_to_reach`, `best_at`).  Invariant: a
/// session's outcome is a pure function of its options (seed/identity).
/// Collaborators: TaskScheduler, Measurer, CostSimulator, callbacks/resume.

#include <cstdint>
#include <memory>
#include <string>

#include "core/presets.hpp"
#include "hwsim/measurer.hpp"
#include "search/task_scheduler.hpp"
#include "workloads/networks.hpp"

namespace harl {

/// One complete auto-scheduling run: owns the workload, the simulated
/// hardware, the measurer (trial accounting + noise) and the task scheduler.
///
/// This is the library's primary entry point:
///
///   TuningSession session(make_bert(1), HardwareConfig::xeon_6226r(),
///                         quick_options("HARL"));
///   session.run(2000);
///   double latency = session.scheduler().estimated_latency_ms();
///
/// Single operators tune through the same path via the single-subgraph
/// Network the `TuningSession(Subgraph, ...)` overload builds.
class TuningSession {
 public:
  TuningSession(Network network, HardwareConfig hw, SearchOptions opts);
  TuningSession(const Subgraph& graph, HardwareConfig hw, SearchOptions opts);

  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  /// Spend `trials` measurement trials (cumulative across calls).
  void run(std::int64_t trials);

  /// Ask a running `run()` to return at the next round boundary (thread-safe)
  /// — the daemon drain path.  The session's durable log then holds a
  /// complete-round checkpoint `resume_session` restores bit-identically.
  void request_stop() { scheduler_->request_stop(); }
  bool stop_requested() const { return scheduler_->stop_requested(); }

  /// Subscribes `cb` (not owned) to this session's tuning events — rounds,
  /// new bests, committed records, task completion.  `RecordLogger` makes a
  /// run durable this way; `resume_session` (io/resume.hpp) restores one.
  void add_callback(TuningCallback* cb) { scheduler_->add_callback(cb); }
  void remove_callback(TuningCallback* cb) { scheduler_->remove_callback(cb); }

  TaskScheduler& scheduler() { return *scheduler_; }
  const TaskScheduler& scheduler() const { return *scheduler_; }
  Measurer& measurer() { return measurer_; }
  const Measurer& measurer() const { return measurer_; }
  const CostSimulator& simulator() const { return simulator_; }
  const Network& network() const { return network_; }
  const HardwareConfig& hardware() const { return hw_; }

  /// Wall-clock seconds spent inside run() so far (the paper's search-time
  /// axis for Tables 7/8).
  double wall_seconds() const { return wall_seconds_; }

  /// Best time (ms) of task `i`, +inf if unmeasured.
  double task_best_ms(int i) const { return scheduler_->task(i).best_time_ms(); }

  /// Weighted network latency estimate (ms), +inf until all tasks measured.
  double latency_ms() const { return scheduler_->estimated_latency_ms(); }

 private:
  Network network_;
  HardwareConfig hw_;
  CostSimulator simulator_;
  Measurer measurer_;
  std::unique_ptr<TaskScheduler> scheduler_;
  double wall_seconds_ = 0;
};

/// First trial count at which `curve` reached a time <= target_ms.
/// Implements the paper's search-time metric ("time consumed to find a
/// program no worse than the baseline's final output").
///
/// Sentinels (pinned by tests):
///   - `target_ms == +inf` returns 0: every program is no worse than an
///     unreachable baseline, so zero trials suffice (even on an empty curve).
///   - an empty curve, or one that never reaches a finite target, returns -1.
///   - a NaN target is never reached: -1.
std::int64_t trials_to_reach(const std::vector<CurvePoint>& curve, double target_ms);

/// Best time in `curve` after at most `trials` measurements.
///
/// Sentinels (pinned by tests): +inf for an empty curve, for `trials < 0`,
/// and for any `trials` smaller than the first curve point's trial count (no
/// measurement has landed yet).
double best_at(const std::vector<CurvePoint>& curve, std::int64_t trials);

}  // namespace harl
