/// Tune-side subcommands of the benchmark tool:
///   tune    one cold tune of a network, run the way `tune_network
///           --policy=P --log=PATH` runs it; with --trace-out, the traced
///           variant that times each layer from outside the program
///   setup   make_network + TuningSession construction only
///   verify  re-derive each task's best from a record log, check its tile
///           factors against the loop extents and re-simulate it

#include <memory>

#include "calibrate.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace harl;

namespace {

SearchOptions base_options(const std::string& policy, std::uint64_t seed) {
  std::optional<PolicyKind> kind = policy_kind_from_name(policy);
  if (!kind) throw std::runtime_error("unknown policy " + policy);
  SearchOptions opts = quick_options(*kind, seed);
  opts.policy_name = policy;
  return opts;
}

/// Everything the traced run learns about the tune while it runs.  Written
/// by the delegating selector, policy and callbacks on the tuning thread
/// (callbacks are synchronous in this run).
struct TuneTrace {
  explicit TuneTrace(bool on) : spans(on) {}

  SpanRecorder spans;
  std::int64_t round_span = 0;  ///< reserved id of the open round, 0 = none
  Clock::time_point round_start;
  std::int64_t rounds = 0;

  double select_us = 0;
  std::int64_t selects = 0;
  double tune_round_ms = 0;
  std::int64_t new_bests = 0;
  double log_us = 0;
  std::int64_t log_calls = 0;
  std::int64_t harl_steps = 0;  ///< PPO window steps, summed over rounds

  std::vector<TaskState*> tasks;  ///< in construction (= task index) order
  /// Per task, the successful records of each round in commit order: the
  /// exact batches TaskState::commit_measurements fed its cost model.
  std::vector<std::vector<std::vector<MeasuredRecord>>> batches;

  void open_round() {
    if (round_span != 0) return;
    round_span = spans.next_id();
    round_start = Clock::now();
    ++rounds;
  }
  void close_round() {
    if (round_span == 0) return;
    spans.record(round_span, "round", round_start, Clock::now(), 0, rounds);
    round_span = 0;
  }
  int task_index(const TaskState* t) const {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i] == t) return static_cast<int>(i);
    }
    return -1;
  }
};

TuneTrace* g_trace = nullptr;  ///< the registry factories have no user data

class TracedSelector : public TaskSelector {
 public:
  explicit TracedSelector(std::unique_ptr<TaskSelector> inner) : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  int select(const TaskScheduler& sched) override {
    g_trace->open_round();
    Clock::time_point t0 = Clock::now();
    int task = inner_->select(sched);
    Clock::time_point t1 = Clock::now();
    g_trace->select_us += us_between(t0, t1);
    g_trace->selects += 1;
    g_trace->spans.record("search.select", t0, t1, g_trace->round_span, g_trace->rounds);
    return task;
  }
  void on_round(const TaskScheduler& sched, int task) override {
    inner_->on_round(sched, task);
  }

 private:
  std::unique_ptr<TaskSelector> inner_;
};

class TracedPolicy : public SearchPolicy {
 public:
  TracedPolicy(std::unique_ptr<SearchPolicy> inner, TaskState* task)
      : inner_(std::move(inner)), task_(task) {}
  const char* name() const override { return inner_->name(); }
  std::vector<MeasuredRecord> tune_round(Measurer& measurer, int num_measures) override {
    g_trace->open_round();
    double before = task_->best_time_ms();
    Clock::time_point t0 = Clock::now();
    std::vector<MeasuredRecord> records = inner_->tune_round(measurer, num_measures);
    Clock::time_point t1 = Clock::now();
    g_trace->tune_round_ms += us_between(t0, t1) / 1e3;
    if (task_->best_time_ms() < before) g_trace->new_bests += 1;
    g_trace->spans.record("search.tune_round", t0, t1, g_trace->round_span, g_trace->rounds);
    if (const auto* harl_policy = dynamic_cast<const HarlSearchPolicy*>(inner_.get())) {
      g_trace->harl_steps += harl_policy->last_round_max_track_len();
    }
    std::vector<MeasuredRecord> ok;
    for (const MeasuredRecord& r : records) {
      if (!r.failed()) ok.push_back(r);
    }
    if (!ok.empty()) {
      g_trace->batches[static_cast<std::size_t>(g_trace->task_index(task_))].push_back(
          std::move(ok));
    }
    return records;
  }

 private:
  std::unique_ptr<SearchPolicy> inner_;
  TaskState* task_;
};

/// Delegating callback around RecordLogger::on_records (io layer), and the
/// end-of-round marker that closes the round span.
class TracedLogger : public TuningCallback {
 public:
  explicit TracedLogger(RecordLogger* inner) : inner_(inner) {}
  void on_records(const TaskScheduler& sched, int task,
                  const std::vector<MeasuredRecord>& records) override {
    Clock::time_point t0 = Clock::now();
    inner_->on_records(sched, task, records);
    Clock::time_point t1 = Clock::now();
    g_trace->log_us += us_between(t0, t1);
    g_trace->log_calls += 1;
    g_trace->spans.record("io.log", t0, t1, g_trace->round_span, g_trace->rounds);
  }
  void on_round(const TaskScheduler&, const RoundEvent&) override { g_trace->close_round(); }

 private:
  RecordLogger* inner_;
};

/// Registers the delegating wrappers of `policy` and of its default task
/// selector; returns their registry names.
std::pair<std::string, std::string> register_traced(const SearchOptions& opts) {
  const std::string policy = opts.effective_policy_name();
  const std::string selector = opts.effective_task_select_name();
  const std::string traced_policy = "perfbench-traced-" + policy;
  const std::string traced_selector = "perfbench-traced-" + selector;
  PolicyRegistry::instance().register_policy(
      traced_policy, [policy](TaskState* task, const SearchOptions& o) {
        g_trace->tasks.push_back(task);
        g_trace->batches.emplace_back();
        return std::make_unique<TracedPolicy>(make_policy(policy, task, o), task);
      });
  TaskSelectRegistry::instance().register_selector(
      traced_selector, [selector](int num_tasks, const SearchOptions& o) {
        return std::make_unique<TracedSelector>(make_task_selector(selector, num_tasks, o));
      });
  return {traced_policy, traced_selector};
}

/// PpoAgent::act / train at the observation width, head sizes and PpoConfig
/// the HARL policy would use for the network's first task.
json::Value time_ppo(const TuningSession& session, const SearchOptions& opts) {
  const TaskState& task = session.scheduler().task(0);
  const ActionSpace& space = task.space(0);
  FeatureExtractor fx(&session.hardware());
  Rng probe(opts.seed ^ 0x0b5ULL);
  Schedule sample = random_schedule(task.sketch(0), space.num_unroll_options(), probe);
  std::vector<double> obs = rl_observation(fx, space, sample);
  auto sizes = space.head_sizes();
  PpoAgent agent(static_cast<int>(obs.size()), std::vector<int>(sizes.begin(), sizes.end()),
                 opts.harl.ppo, opts.seed);
  std::vector<bool> mask;
  space.tile_action_mask(sample, &mask);
  Rng rng(opts.seed ^ 0x9e37ULL);

  const int acts = 2000;
  std::vector<PpoAgent::ActResult> results;
  results.reserve(acts);
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < acts; ++i) results.push_back(agent.act(obs, mask, rng));
  Clock::time_point t1 = Clock::now();

  for (int i = 0; i < 512; ++i) {
    PpoTransition tr;
    tr.obs = obs;
    tr.obs[static_cast<std::size_t>(i) % tr.obs.size()] += 0.01 * (i % 7);
    tr.actions = results[static_cast<std::size_t>(i)].actions;
    tr.logp = results[static_cast<std::size_t>(i)].logp;
    tr.value = results[static_cast<std::size_t>(i)].value;
    tr.reward = 0.001 * (i % 13);
    tr.next_value = tr.value;
    tr.head0_mask = mask;
    agent.store(std::move(tr));
  }
  const int trains = 40;
  Clock::time_point t2 = Clock::now();
  for (int i = 0; i < trains; ++i) agent.train(rng);
  Clock::time_point t3 = Clock::now();

  json::Value out = json::Value::object();
  out.set("obs_dim", num(static_cast<std::int64_t>(obs.size())));
  out.set("act_us", num(us_between(t0, t1) / acts));
  out.set("train_ms", num(us_between(t2, t3) / 1e3 / trains));
  out.set("visits_per_round", num(static_cast<std::int64_t>(adaptive_visit_budget(opts.harl.stop))));
  out.set("train_interval", num(static_cast<std::int64_t>(opts.harl.ppo.train_interval)));
  return out;
}

/// Replays the tune's measurements through fresh copies of the cost,
/// feature and simulator layers, timing each call.
json::Value replay_layers(const TuningSession& session, const SearchOptions& opts) {
  const HardwareConfig& hw = session.hardware();
  CostSimulator sim(hw);
  FeatureExtractor fx(&hw);
  double refit_ms = 0, refit_max_ms = 0, predict_us = 0, extract_us = 0, simulate_us = 0;
  std::int64_t refits = 0, samples_max = 0, rows = 0;
  std::vector<double> feats;
  for (const auto& task_batches : g_trace->batches) {
    XgbCostModel model(&hw, opts.cost_model);
    std::vector<Schedule> all;
    for (const auto& batch : task_batches) {
      std::vector<Schedule> scheds;
      std::vector<double> times;
      for (const MeasuredRecord& r : batch) {
        scheds.push_back(r.sched);
        times.push_back(r.time_ms);
        all.push_back(r.sched);
      }
      Clock::time_point t0 = Clock::now();
      model.update(scheds, times);
      double ms = us_between(t0, Clock::now()) / 1e3;
      refit_ms += ms;
      refit_max_ms = std::max(refit_max_ms, ms);
      refits += 1;
    }
    samples_max = std::max(samples_max, static_cast<std::int64_t>(model.num_samples()));
    if (all.empty()) continue;
    rows += static_cast<std::int64_t>(all.size());
    Clock::time_point t0 = Clock::now();
    std::vector<double> scores = model.predict_batch(all);
    Clock::time_point t1 = Clock::now();
    feats.assign(all.size() * FeatureExtractor::kNumFeatures, 0.0);
    fx.extract_matrix_into(all, feats.data(), nullptr);
    Clock::time_point t2 = Clock::now();
    double sink = 0;
    for (const Schedule& s : all) sink += sim.simulate_ms(s);
    Clock::time_point t3 = Clock::now();
    if (!(sink > 0) || scores.size() != all.size()) throw std::runtime_error("replay failed");
    predict_us += us_between(t0, t1);
    extract_us += us_between(t1, t2);
    simulate_us += us_between(t2, t3);
  }
  json::Value out = json::Value::object();
  out.set("refit_ms_total", num(refit_ms));
  out.set("refits", num(refits));
  out.set("refit_max_ms", num(refit_max_ms));
  out.set("samples_max", num(samples_max));
  out.set("rows", num(rows));
  out.set("predict_us_total", num(predict_us));
  out.set("extract_us_total", num(extract_us));
  out.set("simulate_us_total", num(simulate_us));
  return out;
}

}  // namespace

int cmd_tune(const Flags& flags) {
  const std::string network = flags.str("network");
  const std::string policy = flags.str("policy");
  const std::int64_t trials = flags.i64("trials");
  const std::uint64_t seed = flags.u64("seed");
  const std::string log_path = flags.str("log");
  const std::string trace_out = flags.str("trace-out", "");
  const bool traced = !trace_out.empty();

  TuneTrace trace(traced);
  g_trace = &trace;
  SearchOptions opts = base_options(policy, seed);
  if (traced) {
    auto names = register_traced(opts);
    opts.policy_name = names.first;
    opts.task_select_name = names.second;
  }

  Clock::time_point t0 = Clock::now();
  Network net = make_network(network, 1);
  TuningSession session(std::move(net), HardwareConfig::xeon_6226r(), opts);
  Clock::time_point t1 = Clock::now();

  RecordLogger logger;
  if (!logger.open(log_path, /*append=*/false)) {
    std::fprintf(stderr, "cannot open log %s\n", log_path.c_str());
    return 1;
  }
  TracedLogger traced_logger(&logger);
  session.add_callback(traced ? static_cast<TuningCallback*>(&traced_logger) : &logger);

  const double cal_before = calibrate_s();
  Clock::time_point t2 = Clock::now();
  session.run(trials);
  Clock::time_point t3 = Clock::now();
  const double cal_after = calibrate_s();
  logger.close();

  const TaskScheduler& sched = session.scheduler();
  const Measurer& m = session.measurer();
  json::Value out = json::Value::object();
  out.set("network", json::Value::string(session.network().name));
  out.set("policy", json::Value::string(policy));
  out.set("seed", json::Value::number(seed));
  out.set("setup_s", num(us_between(t0, t1) / 1e6));
  out.set("tune_s", num(us_between(t2, t3) / 1e6));
  out.set("cal_s", num(0.5 * (cal_before + cal_after)));
  out.set("best_ms", num(session.latency_ms()));
  out.set("best_bits", json::Value::string(hex_bits(session.latency_ms())));
  out.set("trials_used", num(m.trials_used()));
  out.set("failed_measurements", num(m.failed()));
  out.set("cache_hits", num(m.cache().hits()));
  out.set("records_logged", num(static_cast<std::int64_t>(logger.written())));
  json::Value tasks = json::Value::array();
  std::vector<std::int64_t> alloc = sched.task_allocations();
  for (int i = 0; i < sched.num_tasks(); ++i) {
    json::Value t = json::Value::object();
    t.set("name", json::Value::string(sched.task(i).graph().name()));
    t.set("weight", num(sched.task(i).graph().weight()));
    t.set("best_ms", num(sched.task(i).best_time_ms()));
    t.set("trials", num(alloc[static_cast<std::size_t>(i)]));
    tasks.push_back(std::move(t));
  }
  out.set("tasks", std::move(tasks));

  if (traced) {
    json::Value layers = json::Value::object();
    layers.set("rounds", num(trace.rounds));
    layers.set("select_us_total", num(trace.select_us));
    layers.set("selects", num(trace.selects));
    layers.set("tune_round_ms_total", num(trace.tune_round_ms));
    layers.set("new_bests", num(trace.new_bests));
    layers.set("log_us_total", num(trace.log_us));
    layers.set("log_calls", num(trace.log_calls));
    layers.set("harl_steps", num(trace.harl_steps));
    layers.set("replay", replay_layers(session, opts));
    layers.set("ppo", time_ppo(session, opts));
    out.set("layers", std::move(layers));
    if (!trace.spans.write_chrome(trace_out, 1)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  g_trace = nullptr;
  return print_json(out) ? 0 : 1;
}

int cmd_setup(const Flags& flags) {
  SearchOptions opts = base_options(flags.str("policy"), flags.u64("seed"));
  const double cal_before = calibrate_s();
  Clock::time_point t0 = Clock::now();
  Network net = make_network(flags.str("network"), 1);
  TuningSession session(std::move(net), HardwareConfig::xeon_6226r(), opts);
  Clock::time_point t1 = Clock::now();
  const double cal_after = calibrate_s();
  json::Value out = json::Value::object();
  out.set("setup_s", num(us_between(t0, t1) / 1e6));
  out.set("cal_s", num(0.5 * (cal_before + cal_after)));
  out.set("tasks", num(static_cast<std::int64_t>(session.scheduler().num_tasks())));
  return print_json(out) ? 0 : 1;
}

int cmd_verify(const Flags& flags) {
  // Multiplicative lognormal noise: a logged time is sim * exp(z * sigma).
  // The best of a task is the minimum over its trials, so its draw leans
  // low; 6 sigma keeps a false alarm below 1e-6 per task.
  const double kBandSigmas = 6.0;
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const Network net = make_network(flags.str("network"), 1);
  std::vector<TuningRecord> records;
  for (const std::string& path : split(flags.str("logs"), ',')) {
    std::vector<RecordReadError> errors;
    std::vector<TuningRecord> part = read_records(path, &errors);
    if (!errors.empty()) {
      std::fprintf(stderr, "%s: %zu unreadable lines\n", path.c_str(), errors.size());
      return 1;
    }
    records.insert(records.end(), part.begin(), part.end());
  }
  CostSimulator sim(hw);
  bool ok = true;
  json::Value tasks = json::Value::array();
  for (const Subgraph& g : net.subgraphs) {
    const TuningRecord* best = nullptr;
    for (const TuningRecord& r : records) {
      if (r.network != net.name || r.task != g.name() || !r.fail.empty()) continue;
      if (best == nullptr || r.time_ms < best->time_ms) best = &r;
    }
    json::Value t = json::Value::object();
    t.set("name", json::Value::string(g.name()));
    if (best == nullptr) {
      t.set("error", json::Value::string("no successful record"));
      tasks.push_back(std::move(t));
      ok = false;
      continue;
    }
    // Tile factors straight from the record, extents from the network
    // definition: every tiled axis must split its extent exactly.
    bool tiles_ok = best->stages.size() == static_cast<std::size_t>(g.num_stages());
    for (std::size_t s = 0; tiles_ok && s < best->stages.size(); ++s) {
      const auto& tiles = best->stages[s].tiles;
      const auto& axes = g.stage(static_cast<int>(s)).op.axes;
      if (tiles.empty()) continue;
      if (tiles.size() != axes.size()) {
        tiles_ok = false;
        break;
      }
      for (std::size_t a = 0; a < axes.size(); ++a) {
        std::int64_t product = 1;
        for (std::int64_t f : tiles[a]) product *= f;
        if (product != axes[a].extent) tiles_ok = false;
      }
    }
    std::vector<Sketch> sketches = generate_sketches(g);
    std::string error;
    Schedule rebuilt = schedule_from_record(*best, sketches, hw.num_unroll_options(), &error);
    double resim = rebuilt.sketch != nullptr ? sim.simulate_ms(rebuilt) : std::nan("");
    double z = std::log(best->time_ms / resim) / hw.noise_sigma;
    bool band_ok = std::isfinite(z) && std::fabs(z) <= kBandSigmas;
    ok = ok && tiles_ok && band_ok;
    t.set("best_ms", num(best->time_ms));
    t.set("resim_ms", num(resim));
    t.set("z", num(z));
    t.set("tiles_ok", json::Value::boolean(tiles_ok));
    t.set("band_ok", json::Value::boolean(band_ok));
    if (!error.empty()) t.set("error", json::Value::string(error));
    tasks.push_back(std::move(t));
  }
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(ok));
  out.set("tasks", std::move(tasks));
  return print_json(out) ? 0 : 1;
}

}  // namespace perfbench
