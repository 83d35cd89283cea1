/// Serve-side subcommands of the benchmark tool:
///   inproc  hydrate a KnowledgeCache from a shard's record logs in this
///           process and serve every key of the mix (the reference the
///           daemon's L2/L3 answers are checked against; timed per tier)
///   transfer rebuild L2 answers from their source records through the
///           cache's transfer path (`adapt_record_schedule`), so answers
///           served while the cache changes can be checked one by one
///   load    the open-loop query generator and job submitter that drives a
///           running harl_serve daemon over loopback TCP

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <set>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace harl;

namespace {

std::vector<std::string> jsonl_files(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

/// True when every tiled axis of `s` splits the extent of the same axis of
/// `g` exactly (factors read from the schedule, extents from the task).
bool tiles_match(const Schedule& s, const Subgraph& g) {
  if (s.stages.size() != static_cast<std::size_t>(g.num_stages())) return false;
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    const auto& tiles = s.stages[i].tiles;
    const auto& axes = g.stage(static_cast<int>(i)).op.axes;
    if (tiles.empty()) continue;
    if (tiles.size() != axes.size()) return false;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      std::int64_t product = 1;
      for (std::int64_t f : tiles[a].factors) product *= f;
      if (product != axes[a].extent) return false;
    }
  }
  return true;
}

}  // namespace

int cmd_inproc(const Flags& flags) {
  const std::string shard = flags.str("shard");
  const std::string publish_path = flags.str("publish", "");
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  KnowledgeCache cache;  // the daemon's shard options: defaults, golden advice on

  Clock::time_point t0 = Clock::now();
  std::size_t inserted = 0;
  for (const std::string& log : jsonl_files(shard)) inserted += cache.insert_log(log);
  double hydrate_ms = us_between(t0, Clock::now()) / 1e3;

  TaskResolver resolve = make_builtin_resolver();
  std::vector<QueryKey> keys = key_universe(split(flags.str("nets"), ','));
  std::map<int, std::vector<double>> warm_us;
  json::Value answers = json::Value::array();
  for (const QueryKey& k : keys) {
    const Subgraph* g = resolve(k.network, k.task);
    if (g == nullptr) throw std::runtime_error("unresolvable key " + k.network + "/" + k.task);
    ServeResult first = cache.serve(k.network, *g, hw);
    // Warm calls: the first serve of a key also builds its sketch context.
    const int reps = 20;
    Clock::time_point a = Clock::now();
    for (int r = 0; r < reps; ++r) cache.serve(k.network, *g, hw);
    int tier = static_cast<int>(first.tier) + 1;
    warm_us[tier].push_back(us_between(a, Clock::now()) / reps);

    json::Value v = json::Value::object();
    v.set("network", json::Value::string(k.network));
    v.set("task", json::Value::string(k.task));
    v.set("tier", json::Value::string(serve_tier_name(first.tier)));
    if (first.tier != ServeTier::kMiss) {
      v.set("fp", json::Value::number(first.schedule.fingerprint()));
      v.set("tiles_ok", json::Value::boolean(tiles_match(first.schedule, *g)));
      v.set("est", num(first.est_time_ms));
    }
    if (first.tier == ServeTier::kL1 || first.tier == ServeTier::kL2) {
      v.set("record", json::Value::string(record_to_json(first.record)));
    }
    answers.push_back(std::move(v));
  }

  json::Value out = json::Value::object();
  out.set("records_inserted", num(static_cast<std::int64_t>(inserted)));
  out.set("hydrate_ms", num(hydrate_ms));
  for (int tier = 1; tier <= 3; ++tier) {
    out.set("l" + std::to_string(tier) + "_us", num(mean(warm_us[tier])));
  }
  if (!publish_path.empty()) {
    std::string error;
    Clock::time_point p0 = Clock::now();
    bool ok = publish_cache(cache, publish_path, &error);
    out.set("publish_ms", num(us_between(p0, Clock::now()) / 1e3));
    if (!ok) throw std::runtime_error("publish_cache: " + error);
  }
  out.set("answers", std::move(answers));
  return print_json(out) ? 0 : 1;
}

/// Input: one L2 answer a line, "network<TAB>task<TAB>record JSON".  Output:
/// per line, whether the record adapts to the query task, whether the
/// adapted tiles split the task's extents, and the adapted schedule's
/// fingerprint (what the daemon's `schedule_fp` must be).
int cmd_transfer(const Flags& flags) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  TaskResolver resolve = make_builtin_resolver();
  FILE* in = std::fopen(flags.str("answers").c_str(), "r");
  if (in == nullptr) throw std::runtime_error("cannot open " + flags.str("answers"));
  json::Value out = json::Value::array();
  std::string line;
  for (int c = std::fgetc(in);; c = std::fgetc(in)) {
    if (c != '\n' && c != EOF) {
      line += static_cast<char>(c);
      continue;
    }
    if (!line.empty()) {
      std::vector<std::string> f = split(line, '\t');
      if (f.size() != 3) throw std::runtime_error("bad answer line");
      const Subgraph* g = resolve(f[0], f[1]);
      if (g == nullptr) throw std::runtime_error("unresolvable key " + f[0] + "/" + f[1]);
      TuningRecord rec;
      std::string error;
      json::Value v = json::Value::object();
      v.set("network", json::Value::string(f[0]));
      v.set("task", json::Value::string(f[1]));
      Schedule s;
      if (record_from_json(f[2], &rec, &error)) {
        s = adapt_record_schedule(rec, generate_sketches(*g), hw.num_unroll_options(), &error);
      }
      v.set("rebuilt", json::Value::boolean(s.sketch != nullptr));
      if (s.sketch != nullptr) {
        v.set("tiles_ok", json::Value::boolean(tiles_match(s, *g)));
        v.set("fp", json::Value::number(s.fingerprint()));
      }
      out.push_back(std::move(v));
    }
    line.clear();
    if (c == EOF) break;
  }
  std::fclose(in);
  return print_json(out) ? 0 : 1;
}

// ------------------------------------------------------------------ load

namespace {

/// One loopback connection with its own receive buffer; replies on a query
/// connection answer its requests in order (the daemon serves each
/// connection sequentially).
struct Conn {
  int fd = -1;
  std::string buffer;
  std::deque<std::int64_t> outstanding;  ///< query ids awaiting a reply

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  bool open(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }
  bool send_line(std::string line) {
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Reads what is available; false on EOF or error.
  bool fill() {
    char chunk[65536];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  bool pop_line(std::string* line) {
    std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) return false;
    line->assign(buffer, 0, nl);
    buffer.erase(0, nl + 1);
    return true;
  }
};

struct JobSpec {
  std::string tenant;
  std::string network;
  std::string policy;
  std::int64_t trials = 0;
  std::uint64_t seed = 0;
};

struct JobRun {
  JobSpec spec;
  std::int64_t id = -1;
  bool done = false;
  bool ok = true;
  std::string state;
  Clock::time_point sent, ack, first_round, last_round, done_at;
  std::int64_t rounds = 0;
  double round_gap_ms = 0;
  std::int64_t trials_used = -1;
  double latency_ms = -1;
};

/// Per-query bookkeeping of the open-loop stream.
struct Query {
  Clock::time_point due;
  Clock::time_point sent;
  int key = 0;
  bool traced = false;
  double encode_us = 0;
};

class Generator {
 public:
  explicit Generator(const Flags& flags)
      : port_(static_cast<int>(flags.i64("port"))),
        keys_(key_universe(split(flags.str("nets"), ','))),
        rng_(flags.u64("seed") ^ 0x6b65796d6978ULL),
        spans_(flags.has("trace")) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      by_tier_[keys_[i].expect].push_back(static_cast<int>(i));
    }
    for (int c = 0; c < kQueryConns; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      if (!conns_.back()->open(port_)) throw std::runtime_error("connect failed");
    }
    if (!control_.open(port_)) throw std::runtime_error("control connect failed");
  }

  /// Draws the next key of the mix: the tier by its share, then a key of
  /// that tier uniformly.
  int draw_key() {
    double u = rng_.next_double();
    int tier = u < kL1Share ? 1 : u < kL1Share + kL2Share ? 2 : 3;
    const std::vector<int>& pool = by_tier_[tier];
    return pool[rng_.pick_index(pool.size())];
  }

  std::string query_line(int key) {
    Request q;
    q.type = RequestType::kQuery;
    q.network = keys_[static_cast<std::size_t>(key)].network;
    q.task = keys_[static_cast<std::size_t>(key)].task;
    q.hw = "xeon";
    return request_to_json(q);
  }

  // ---- control connection: hello/tune/stats replies and job events ----

  void control_send(const Request& req, int kind, int job_index) {
    if (!control_.send_line(request_to_json(req))) throw std::runtime_error("control send");
    control_fifo_.push_back({kind, job_index});
  }

  void submit_job(std::size_t index) {
    JobRun& j = jobs_[index];
    Request t;
    t.type = RequestType::kTune;
    t.tenant = j.spec.tenant;
    t.network = j.spec.network;
    t.hw = "xeon";
    t.trials = j.spec.trials;
    t.seed = j.spec.seed;
    t.policy = j.spec.policy;
    j.sent = Clock::now();
    control_send(t, kTune, static_cast<int>(index));
  }

  void handle_control_line(const std::string& line, Clock::time_point now) {
    Response r;
    std::string error;
    if (!response_from_json(line, &r, &error)) throw std::runtime_error("control reply: " + error);
    if (!r.event.empty()) {
      for (JobRun& j : jobs_) {
        if (j.id != r.job) continue;
        if (r.event == "round") {
          if (j.rounds == 0) {
            j.first_round = now;
          } else {
            j.round_gap_ms += us_between(j.last_round, now) / 1e3;
          }
          j.last_round = now;
          j.rounds += 1;
        } else if (r.event == "done") {
          j.done = true;
          j.done_at = now;
          j.state = r.state;
          j.trials_used = r.trials_used;
          j.latency_ms = r.latency_ms;
          if (r.state != "done") j.ok = false;
        }
      }
      return;
    }
    if (control_fifo_.empty()) throw std::runtime_error("unexpected control reply");
    auto [kind, index] = control_fifo_.front();
    control_fifo_.pop_front();
    if (!r.ok) {
      if (kind == kTune) {
        jobs_[static_cast<std::size_t>(index)].ok = false;
        jobs_[static_cast<std::size_t>(index)].done = true;
        return;
      }
      throw std::runtime_error("control request failed: " + r.error);
    }
    if (kind == kTune) {
      JobRun& j = jobs_[static_cast<std::size_t>(index)];
      j.id = r.job;
      j.ack = now;
      Request sub;
      sub.type = RequestType::kSubscribe;
      sub.job = r.job;
      if (!control_.send_line(request_to_json(sub))) throw std::runtime_error("subscribe send");
    } else if (kind == kStats) {
      stats_.push_back(r);
    }
  }

  bool jobs_done() const {
    for (const JobRun& j : jobs_) {
      if (!j.done) return false;
    }
    return true;
  }

  // ---- the event loop ---------------------------------------------------

  /// Runs an open-loop stream at `rate` until `min_s` elapsed and the jobs
  /// are done (or `max_s` elapsed), then drains replies.  With `window`
  /// > 0 it instead keeps `window` queries outstanding per connection
  /// (saturation probe).  Returns latencies from each query's due time.
  struct StreamResult {
    std::int64_t sent = 0, answered = 0, failed = 0;
    std::vector<double> lat_us, late_us, serve_us, hop_us, lat_untraced, lat_traced;
    std::vector<double> due_s;  ///< each latency's due time, from the start
    double seconds = 0;

    /// Median over consecutive `window_s` windows (by due time) of each
    /// window's 99th percentile: a tail figure that one stall of the shared
    /// machine cannot move alone.
    std::vector<double> window_p99s(double window_s) const {
      std::map<std::int64_t, std::vector<double>> windows;
      for (std::size_t i = 0; i < lat_us.size(); ++i) {
        windows[static_cast<std::int64_t>(due_s[i] / window_s)].push_back(lat_us[i]);
      }
      std::vector<double> p99s;
      for (const auto& kv : windows) p99s.push_back(percentile(kv.second, 0.99));
      return p99s;
    }
    double windowed_p99(double window_s) const { return percentile(window_p99s(window_s), 0.5); }
  };

  StreamResult stream(double rate, double min_s, double max_s, int window, bool record,
                      double trace_after_s) {
    StreamResult res;
    queries_.clear();
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    start_ = start;
    Clock::time_point last_due = start;
    bool sending = true;
    std::int64_t next = 0;
    // An open-loop stream sends exactly rate * min_s queries, and goes on
    // past them only while jobs still run (up to max_s), so it sends the same
    // number every run; a saturation probe sends for min_s.
    const std::int64_t quota = static_cast<std::int64_t>(std::round(rate * min_s));
    std::vector<pollfd> fds(conns_.size() + 1);
    for (;;) {
      Clock::time_point now = Clock::now();
      double elapsed = std::chrono::duration<double>(now - start).count();
      bool quota_met = window > 0 ? elapsed >= min_s : next >= quota;
      if (sending && quota_met && (jobs_done() || elapsed >= max_s)) sending = false;
      // Send every query that is due.
      while (sending && (window > 0 || next < quota || !jobs_done())) {
        std::size_t c = static_cast<std::size_t>(next) % conns_.size();
        Clock::time_point due;
        if (window > 0) {
          if (static_cast<int>(conns_[c]->outstanding.size()) >= window) break;
          due = now;
        } else {
          due = start + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(1e9 * static_cast<double>(next) / rate));
          if (due > now) break;
        }
        Query q;
        q.due = due;
        q.key = draw_key();
        q.traced = spans_.enabled() && elapsed >= trace_after_s;
        Clock::time_point e0 = Clock::now();
        std::string line = query_line(q.key);
        Clock::time_point e1 = Clock::now();
        q.encode_us = us_between(e0, e1);
        q.sent = e1;
        if (!conns_[c]->send_line(std::move(line))) throw std::runtime_error("query send");
        conns_[c]->outstanding.push_back(next);
        queries_.push_back(q);
        res.late_us.push_back(us_between(due, e1));
        ++next;
        ++res.sent;
        last_due = due;
        now = Clock::now();
      }
      bool waiting = false;
      for (const auto& c : conns_) waiting = waiting || !c->outstanding.empty();
      if (!sending && !waiting) break;
      if (!sending && us_between(last_due, now) > 10e6) {
        throw std::runtime_error("replies stopped arriving");
      }

      // Poll without sleeping while queries are due, yielding the CPU
      // between polls: a sleeping thread of a virtual machine can wake
      // milliseconds late, which an open-loop generator would count as the
      // daemon's latency, and a bare spin would keep a daemon thread that
      // shares this CPU waiting for the next scheduler tick.  Once sending
      // ends, wait for the remaining replies in short sleeps.
      timespec ts{0, sending ? 0 : 200000};
      for (std::size_t c = 0; c < conns_.size(); ++c) fds[c] = {conns_[c]->fd, POLLIN, 0};
      fds.back() = {control_.fd, POLLIN, 0};
      int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll");
      if (rc <= 0) {
        if (sending) ::sched_yield();
        continue;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents == 0) continue;
        if (!conns_[c]->fill()) throw std::runtime_error("query connection closed");
        std::string line;
        while (conns_[c]->pop_line(&line)) {
          Clock::time_point t = Clock::now();
          if (conns_[c]->outstanding.empty()) throw std::runtime_error("unsolicited reply");
          std::int64_t id = conns_[c]->outstanding.front();
          conns_[c]->outstanding.pop_front();
          on_reply(static_cast<int>(c), id, line, t, record, &res);
        }
      }
      if (fds.back().revents != 0) {
        if (!control_.fill()) throw std::runtime_error("control connection closed");
        std::string line;
        while (control_.pop_line(&line)) handle_control_line(line, Clock::now());
      }
    }
    res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return res;
  }

  void on_reply(int conn, std::int64_t id, const std::string& line, Clock::time_point t,
                bool record, StreamResult* res) {
    const Query& q = queries_[static_cast<std::size_t>(id)];
    Response r;
    std::string error;
    Clock::time_point d0 = Clock::now();
    bool parsed = response_from_json(line, &r, &error);
    Clock::time_point d1 = Clock::now();
    double lat = us_between(q.due, t);
    res->lat_us.push_back(lat);
    res->due_s.push_back(us_between(start_, q.due) / 1e6);
    if (!parsed || !r.ok || r.tier.empty() || r.tier == "miss") {
      res->failed += 1;
      return;
    }
    res->answered += 1;
    double rt = us_between(q.sent, t);
    if (r.serve_us >= 0) {
      res->serve_us.push_back(r.serve_us);
      res->hop_us.push_back(rt - r.serve_us);
    }
    if (!record) return;
    (q.traced ? res->lat_traced : res->lat_untraced).push_back(lat);
    if (q.traced) {
      encode_us_.push_back(q.encode_us);
      decode_us_.push_back(us_between(d0, d1));
      std::int64_t parent = spans_.next_id();
      spans_.record("server.encode", q.sent - std::chrono::nanoseconds(static_cast<std::int64_t>(
                                                 q.encode_us * 1e3)),
                    q.sent, parent, id);
      spans_.record("server.decode", d0, d1, parent, id);
      spans_.record(parent, "query", q.due, d1, 0, id);
    }
    tiers_[r.tier] += 1;
    generations_.insert(r.cache_gen);
    // Distinct consecutive answers per (connection, key): enough for every
    // check, without keeping each of the identical replies.
    auto key = std::make_pair(conn, q.key);
    std::string sig = r.tier + '|' + std::to_string(r.schedule_fp) + '|' +
                      json::format_double(r.est_time_ms) + '|' + std::to_string(r.cache_gen);
    auto it = last_sig_.find(key);
    if (it != last_sig_.end() && it->second.first == sig) {
      replies_[it->second.second].count += 1;
      return;
    }
    last_sig_[key] = {sig, replies_.size()};
    replies_.push_back({conn, q.key, id, r});
  }

  /// The distinct replies as JSON (network, task, tier, schedule, estimate,
  /// cache generation, record bytes, first query id and repeat count).
  json::Value replies_json() const {
    json::Value out = json::Value::array();
    for (const Distinct& d : replies_) {
      json::Value v = json::Value::object();
      v.set("conn", num(static_cast<std::int64_t>(d.conn)));
      v.set("network", json::Value::string(keys_[static_cast<std::size_t>(d.key)].network));
      v.set("task", json::Value::string(keys_[static_cast<std::size_t>(d.key)].task));
      v.set("tier", json::Value::string(d.reply.tier));
      v.set("fp", json::Value::number(d.reply.schedule_fp));
      v.set("est", num(d.reply.est_time_ms));
      v.set("gen", json::Value::number(d.reply.cache_gen));
      v.set("record", json::Value::string(d.reply.record));
      v.set("first", num(d.first));
      v.set("count", num(d.count));
      out.push_back(std::move(v));
    }
    return out;
  }

  /// One query per key of the universe, closed loop on the first connection.
  json::Value verify_all() {
    json::Value out = json::Value::array();
    Conn& c = *conns_[0];
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      if (!c.send_line(query_line(static_cast<int>(k)))) throw std::runtime_error("send");
      std::string line;
      while (!c.pop_line(&line)) {
        if (!c.fill()) throw std::runtime_error("verify connection closed");
      }
      Response r;
      std::string error;
      if (!response_from_json(line, &r, &error) || !r.ok) {
        throw std::runtime_error("verify query failed: " + error + r.error);
      }
      json::Value v = json::Value::object();
      v.set("network", json::Value::string(keys_[k].network));
      v.set("task", json::Value::string(keys_[k].task));
      v.set("tier", json::Value::string(r.tier));
      v.set("fp", json::Value::number(r.schedule_fp));
      v.set("est", num(r.est_time_ms));
      v.set("record", json::Value::string(r.record));
      out.push_back(std::move(v));
    }
    return out;
  }

  /// Blocks on the control connection until `pred` holds.
  template <typename Pred>
  void control_wait(Pred pred, double timeout_s) {
    Clock::time_point start = Clock::now();
    while (!pred()) {
      if (us_between(start, Clock::now()) > timeout_s * 1e6) {
        throw std::runtime_error("timed out waiting on the control connection");
      }
      pollfd pfd{control_.fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, 100);
      if (rc <= 0) continue;
      if (!control_.fill()) throw std::runtime_error("control connection closed");
      std::string line;
      while (control_.pop_line(&line)) handle_control_line(line, Clock::now());
    }
  }

  void request_stats() {
    Request s;
    s.type = RequestType::kStats;
    std::size_t want = stats_.size() + 1;
    control_send(s, kStats, -1);
    control_wait([&] { return stats_.size() >= want; }, 30);
  }

  void hello(const std::string& tenant) {
    Request h;
    h.type = RequestType::kHello;
    h.tenant = tenant;
    h.weight = 1.0;
    control_send(h, kHello, -1);
  }

  static JobSpec parse_job(const std::string& text, std::uint64_t seed) {
    std::vector<std::string> f = split(text, ':');
    if (f.size() != 4) throw std::runtime_error("bad job spec " + text);
    return {f[0], f[1], f[2], std::stoll(f[3]), seed};
  }

  /// One distinct consecutive answer for a (connection, key).
  struct Distinct {
    int conn = 0;
    int key = 0;
    std::int64_t first = 0;
    Response reply;
    std::int64_t count = 1;
  };

  std::vector<JobRun> jobs_;
  std::vector<Response> stats_;
  std::vector<Distinct> replies_;
  std::map<std::string, std::int64_t> tiers_;
  std::set<std::uint64_t> generations_;
  std::vector<double> encode_us_, decode_us_;
  SpanRecorder& spans() { return spans_; }

 private:
  enum { kHello, kTune, kStats };
  int port_;
  std::vector<QueryKey> keys_;
  std::map<int, std::vector<int>> by_tier_;
  Rng rng_;
  SpanRecorder spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Conn control_;
  std::deque<std::pair<int, int>> control_fifo_;
  std::vector<Query> queries_;
  Clock::time_point start_;  ///< start of the current stream
  std::map<std::pair<int, int>, std::pair<std::string, std::size_t>> last_sig_;
};

json::Value job_json(const JobRun& j, Clock::time_point origin) {
  json::Value v = json::Value::object();
  v.set("tenant", json::Value::string(j.spec.tenant));
  v.set("network", json::Value::string(j.spec.network));
  v.set("policy", json::Value::string(j.spec.policy));
  v.set("trials", num(j.spec.trials));
  v.set("seed", json::Value::number(j.spec.seed));
  v.set("job", num(j.id));
  v.set("ok", json::Value::boolean(j.ok && j.done && j.state == "done"));
  v.set("state", json::Value::string(j.state));
  v.set("trials_used", num(j.trials_used));
  v.set("latency_ms", num(j.latency_ms));
  v.set("rounds", num(j.rounds));
  v.set("submit_s", num(us_between(origin, j.sent) / 1e6));
  v.set("ack_s", num(us_between(origin, j.ack) / 1e6));
  v.set("job_s", num(us_between(j.ack, j.done_at) / 1e6));
  v.set("queue_ms", num(j.rounds > 0 ? us_between(j.ack, j.first_round) / 1e3 : std::nan("")));
  v.set("round_gap_ms",
        num(j.rounds > 1 ? j.round_gap_ms / static_cast<double>(j.rounds - 1) : std::nan("")));
  return v;
}

json::Value stats_json(const Response& r) {
  json::Value v = json::Value::object();
  v.set("queries", num(r.queries));
  v.set("refreshes", num(r.refreshes));
  v.set("invalidations", num(r.invalidations));
  v.set("jobs_admitted", num(r.jobs_admitted));
  v.set("jobs_completed", num(r.jobs_completed));
  return v;
}

json::Value summary(const Generator::StreamResult& s) {
  json::Value v = json::Value::object();
  v.set("sent", num(s.sent));
  v.set("answered", num(s.answered));
  v.set("failed", num(s.failed));
  v.set("seconds", num(s.seconds));
  v.set("lat_n", num(static_cast<std::int64_t>(s.lat_us.size())));
  v.set("lat_p50_us", num(percentile(s.lat_us, 0.50)));
  v.set("lat_p99_us", num(s.windowed_p99(0.5)));
  v.set("lat_p99_all_us", num(percentile(s.lat_us, 0.99)));
  json::Value windows = json::Value::array();
  for (double p : s.window_p99s(0.5)) windows.push_back(num(p));
  v.set("window_p99_us", std::move(windows));
  v.set("late_p99_us", num(percentile(s.late_us, 0.99)));
  v.set("serve_p50_us", num(percentile(s.serve_us, 0.50)));
  v.set("serve_p99_us", num(percentile(s.serve_us, 0.99)));
  v.set("hop_p50_us", num(percentile(s.hop_us, 0.50)));
  v.set("hop_p99_us", num(percentile(s.hop_us, 0.99)));
  return v;
}

}  // namespace

int cmd_load(const Flags& flags) {
  Generator gen(flags);
  const double seconds = flags.f64("seconds");
  const std::uint64_t seed = flags.u64("seed");
  json::Value out = json::Value::object();
  Clock::time_point origin = Clock::now();

  // Jobs of the read-write mix: every tenant says hello (equal weights),
  // then the whole seeded sequence is submitted at the start of the stream.
  std::vector<std::string> specs = split(flags.str("jobs", ""), ',');
  std::set<std::string> tenants;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    gen.jobs_.push_back({});
    gen.jobs_.back().spec = Generator::parse_job(specs[i], seed * 1000 + i + 1);
    tenants.insert(gen.jobs_.back().spec.tenant);
  }
  for (const std::string& t : tenants) gen.hello(t);
  gen.request_stats();
  for (std::size_t i = 0; i < gen.jobs_.size(); ++i) gen.submit_job(i);

  // The measured stream.  A traced run traces its second half only, so the
  // first half is the untraced reference for the overhead estimate.
  Generator::StreamResult main =
      gen.stream(kQueryRate, seconds, 3 * seconds, 0, true, flags.has("trace") ? seconds / 2 : 1e18);
  gen.control_wait([&] { return gen.jobs_done(); }, 120);
  json::Value stream = summary(main);
  json::Value tiers = json::Value::object();
  for (const auto& kv : gen.tiers_) tiers.set(kv.first, num(kv.second));
  stream.set("tiers", std::move(tiers));
  stream.set("generations", num(static_cast<std::int64_t>(gen.generations_.size())));
  if (flags.has("trace")) {
    stream.set("untraced_p50_us", num(percentile(main.lat_untraced, 0.5)));
    stream.set("traced_p50_us", num(percentile(main.lat_traced, 0.5)));
    stream.set("encode_us", num(mean(gen.encode_us_)));
    stream.set("decode_us", num(mean(gen.decode_us_)));
  }
  out.set("stream", std::move(stream));
  out.set("replies", gen.replies_json());
  out.set("verify", gen.verify_all());
  gen.request_stats();

  // Highest offered rate whose p99 (from the due time) stays under the
  // limit: a saturation probe bounds the search, then bisection.  The limit
  // sits well above this machine's scheduling stalls, so a step fails when
  // its backlog grows, not when a thread was descheduled once.
  json::Value qps = json::Value::object();
  const double step_s = flags.f64("qps-step-s");
  if (step_s > 0) {
    Generator::StreamResult sat = gen.stream(1, step_s, step_s, 8, false, 1e18);
    double capacity = static_cast<double>(sat.answered) / sat.seconds;
    json::Value steps = json::Value::array();
    auto passes = [&](double r) {
      Generator::StreamResult s = gen.stream(r, step_s, step_s, 0, false, 1e18);
      double p99 = percentile(s.lat_us, 0.99);
      bool pass = s.failed == 0 && p99 <= kP99LimitUs;
      json::Value st = json::Value::object();
      st.set("rate", num(r));
      st.set("p99_us", num(p99));
      st.set("pass", json::Value::boolean(pass));
      steps.push_back(std::move(st));
      return pass;
    };
    double lo = 0.25 * capacity, hi = capacity;
    while (!passes(lo) && lo > 1) {
      hi = lo;
      lo /= 2;
    }
    for (int i = 0; i < static_cast<int>(flags.i64("qps-bisect")); ++i) {
      double mid = 0.5 * (lo + hi);
      (passes(mid) ? lo : hi) = mid;
    }
    qps.set("capacity", num(capacity));
    qps.set("result", num(lo));
    qps.set("steps", std::move(steps));
  }
  out.set("qps", std::move(qps));

  // Probe jobs, one at a time on an otherwise idle daemon.
  std::vector<std::string> probes = split(flags.str("probe-jobs", ""), ',');
  std::size_t first_probe = gen.jobs_.size();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    gen.jobs_.push_back({});
    gen.jobs_.back().spec = Generator::parse_job(probes[i], seed * 1000 + 500 + i);
    gen.submit_job(gen.jobs_.size() - 1);
    gen.control_wait([&] { return gen.jobs_done(); }, 120);
  }
  json::Value jobs = json::Value::array();
  for (std::size_t i = 0; i < gen.jobs_.size(); ++i) {
    json::Value j = job_json(gen.jobs_[i], origin);
    j.set("probe", json::Value::boolean(i >= first_probe));
    jobs.push_back(std::move(j));
  }
  out.set("jobs", std::move(jobs));
  gen.request_stats();
  json::Value stats = json::Value::array();
  for (const Response& r : gen.stats_) stats.push_back(stats_json(r));
  out.set("stats", std::move(stats));

  if (flags.has("trace") && !gen.spans().write_chrome(flags.str("trace-out"), 2)) {
    throw std::runtime_error("cannot write trace");
  }
  return print_json(out) ? 0 : 1;
}

}  // namespace perfbench
