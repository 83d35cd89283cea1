/// Serving-daemon latency benchmark + acceptance gate: is harl_serve's query
/// path fast enough to sit in an interactive compile loop?  Starts an
/// in-process HarlServer on an ephemeral loopback port, warms its shard
/// cache with one small tuning job, then measures full client-side
/// round-trips (serialize -> TCP -> parse -> serve -> reply) for repeated
/// queries of the tuned task.
///
/// Gates (exit 1 on violation; exit 2 on setup failure):
///   query round-trip p50 <= 5 ms and p99 <= 50 ms
///   every reply an L1 hit (the warmed task must never degrade tiers)
/// Emits BENCH_serve.json for CI artifact diffing.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

using namespace harl;
using namespace harl::bench;

namespace {

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

Percentiles percentiles(std::vector<double>& us) {
  std::sort(us.begin(), us.end());
  auto at = [&](double q) {
    return us[static_cast<std::size_t>(q * (us.size() - 1))];
  };
  return {at(0.50), at(0.90), at(0.99), us.back()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  const std::int64_t tune_trials = args.trials > 0 ? args.trials : 40;
  const int iterations = args.paper ? 5000 : 2000;

  ServerOptions opts;
  opts.state_dir = "bench_serve_state";
  opts.max_concurrent = 1;
  opts.tuning = quick_options("HARL");
  HarlServer server(std::move(opts));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "FAIL: server start: %s\n", error.c_str());
    return 2;
  }

  // Warm the shard: one small tuning job makes bert_b1/GEMM-I an L1 resident.
  Request tune;
  tune.type = RequestType::kTune;
  tune.tenant = "bench";
  tune.network = "bert";
  tune.hw = "test";
  tune.trials = tune_trials;
  tune.seed = args.seed;
  Response admitted = server.handle_for_test(tune);
  if (!admitted.ok) {
    std::fprintf(stderr, "FAIL: tune admission: %s\n", admitted.error.c_str());
    return 2;
  }
  Request status;
  status.type = RequestType::kStatus;
  status.job = admitted.job;
  for (;;) {
    Response r = server.handle_for_test(status);
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: status: %s\n", r.error.c_str());
      return 2;
    }
    if (r.state == "done") break;
    if (r.state == "stopped") {
      std::fprintf(stderr, "FAIL: warm-up job stopped early\n");
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  LineClient cli;
  if (!cli.connect("127.0.0.1", server.port(), &error)) {
    std::fprintf(stderr, "FAIL: connect: %s\n", error.c_str());
    return 2;
  }
  const std::string query_line = request_to_json([] {
    Request q;
    q.type = RequestType::kQuery;
    q.network = "bert_b1";
    q.task = "GEMM-I";
    q.hw = "test";
    return q;
  }());

  std::vector<double> round_us, serve_us;
  round_us.reserve(static_cast<std::size_t>(iterations));
  serve_us.reserve(static_cast<std::size_t>(iterations));
  int non_l1 = 0;
  for (int i = 0; i < iterations; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    std::string reply;
    if (!cli.send_line(query_line, &error) ||
        !cli.recv_line(&reply, &error)) {
      std::fprintf(stderr, "FAIL: round-trip %d: %s\n", i, error.c_str());
      return 2;
    }
    auto t1 = std::chrono::steady_clock::now();
    Response resp;
    if (!response_from_json(reply, &resp, &error) || !resp.ok) {
      std::fprintf(stderr, "FAIL: reply %d: %s %s\n", i, error.c_str(),
                   resp.error.c_str());
      return 2;
    }
    if (resp.tier != "L1") ++non_l1;
    round_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (resp.serve_us >= 0) serve_us.push_back(resp.serve_us);
  }
  server.shutdown();

  Percentiles rt = percentiles(round_us);
  Percentiles sv = percentiles(serve_us);

  Table t("harl_serve query latency (" + std::to_string(iterations) +
          " round-trips, loopback)");
  t.set_header({"metric", "p50 us", "p90 us", "p99 us", "max us"});
  t.add("client round-trip", Table::fmt(rt.p50, 1), Table::fmt(rt.p90, 1),
        Table::fmt(rt.p99, 1), Table::fmt(rt.max, 1));
  t.add("server-side serve", Table::fmt(sv.p50, 1), Table::fmt(sv.p90, 1),
        Table::fmt(sv.p99, 1), Table::fmt(sv.max, 1));
  t.print();
  args.maybe_save(t, "serve_latency");

  const double kP50GateUs = 5000.0;   // 5 ms
  const double kP99GateUs = 50000.0;  // 50 ms
  const bool latency_ok = rt.p50 <= kP50GateUs && rt.p99 <= kP99GateUs;
  const bool tier_ok = non_l1 == 0;

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"iterations\":%d,\"roundtrip_p50_us\":%.2f,"
                 "\"roundtrip_p90_us\":%.2f,\"roundtrip_p99_us\":%.2f,"
                 "\"roundtrip_max_us\":%.2f,\"serve_p50_us\":%.2f,"
                 "\"serve_p99_us\":%.2f,\"non_l1_replies\":%d,"
                 "\"p50_gate_us\":%.0f,\"p99_gate_us\":%.0f,"
                 "\"gate_pass\":%s}\n",
                 iterations, rt.p50, rt.p90, rt.p99, rt.max, sv.p50, sv.p99,
                 non_l1, kP50GateUs, kP99GateUs,
                 latency_ok && tier_ok ? "true" : "false");
    std::fclose(json);
  }

  if (!latency_ok || !tier_ok) {
    std::fprintf(stderr,
                 "FAIL: gate (p50 %.1f us <= %.0f us: %s, p99 %.1f us <= "
                 "%.0f us: %s, non-L1 replies %d)\n",
                 rt.p50, kP50GateUs, rt.p50 <= kP50GateUs ? "yes" : "NO",
                 rt.p99, kP99GateUs, rt.p99 <= kP99GateUs ? "yes" : "NO",
                 non_l1);
    return 1;
  }
  std::printf("\ngate: p50 %.1f us, p99 %.1f us round-trip, all %d replies "
              "L1 — PASS\n",
              rt.p50, rt.p99, iterations);
  return 0;
}
