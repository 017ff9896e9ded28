// layerbench: the binary behind run.py (see ../README.md).  Each mode is one
// fresh process; run.py gives every process a private, empty JIT cache.
//
//   layerbench setup  --workload W --seed S              cold set-up only
//   layerbench run    --workload W --seed S --seconds T  set-up, checks, timed workload
//   layerbench ladder --seed S                           compile, kernel, lane block and
//                                                        run rungs for every ladder key
//   layerbench trace  --workload W --seed S --seconds T [--spans FILE]
//                                                        service and edge rungs, traced
//
// Output is JSON lines on stdout: {"kind":"ready"} when set-up is done, then
// one {"kind":"metrics",...} line.  A wrong answer exits 3 without metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "absort/netlist/native_engine.hpp"
#include "ladder.hpp"
#include "load.hpp"

namespace {

using namespace lb;
namespace service = absort::service;

constexpr double kOpenRate = 4000;     // edge-open-mixed offered load, req/s
constexpr std::size_t kWindow = 32;    // edge-closed-hot in flight per connection
constexpr std::size_t kPool = 4096;    // closed-loop inputs per connection
constexpr std::size_t kBitExactSamples = 32;
/// Untimed load before every measured phase, so that lazy set-up, caches
/// and the host's scheduling have settled.
constexpr double kWarmupSeconds = 1.0;
/// Ladder rungs: passes over every key, and the time one pass gives a key.
constexpr int kLadderPasses = 3;
constexpr double kLadderPassSeconds = 0.3;

struct Args {
  std::string mode;
  std::string workload;
  std::string spans;
  std::uint64_t seed = 1;
  double seconds = 10;
};

const std::vector<std::string>& offline_keys() {
  static const std::vector<std::string> keys = {"batcher-64", "prefix-1024", "fish-256"};
  return keys;
}

bool is_batch(const std::string& w) { return w == "batch-offline"; }

/// Connections (each a sender plus a receiver thread): 2, or fewer on a
/// host too small for 2 x 2 generator threads.
std::size_t connections() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw / 2, 1, 2);
}

/// The traffic a workload sends through the serving layers, with `pool`
/// closed-loop inputs per connection.  batch-offline sends none in its timed
/// phase; the traced run replays its vectors as a closed loop.
Load serving_load(const std::string& w, std::uint64_t seed, double seconds,
                  std::size_t pool = kPool) {
  if (w == "edge-open-mixed") return open_mixed_load(seed, seconds, kOpenRate, connections());
  if (w == "edge-closed-hot") return closed_load(seed, {"prefix-64"}, connections(), kWindow, pool);
  return closed_load(seed, offline_keys(), connections(), kWindow, pool / 4);
}

/// The keys a workload sends through the serving layers.
std::vector<Key> serving_keys(const std::string& w) { return serving_load(w, 0, 0, 0).keys; }

std::vector<Engine> compile_offline() {
  std::vector<Engine> engines;
  for (const auto& k : offline_keys()) engines.push_back(compile_engine(parse_key(k)));
  return engines;
}

std::vector<Batch> offline_batches(std::uint64_t seed) {
  std::vector<Batch> batches;
  for (const auto& k : offline_keys()) batches.push_back(make_batch(parse_key(k), seed, kOfflineBatch));
  return batches;
}

void record_host(Report& r) {
  r.info("hardware_concurrency", static_cast<double>(std::thread::hardware_concurrency()));
  r.info("jit_cache_dir", absort::netlist::jit_cache_dir());
}

void record_jit(Report& r, const char* prefix) {
  const auto j = absort::netlist::jit_counters();
  r.info(std::string(prefix) + "jit_compiles", static_cast<double>(j.compiles));
  r.info(std::string(prefix) + "jit_cache_hits", static_cast<double>(j.cache_hits));
  r.info(std::string(prefix) + "jit_fallbacks", static_cast<double>(j.fallbacks));
}

void record_engines(Report& r, const service::ServiceStats& s) {
  for (const auto& e : s.engines) {
    r.info("backend." + e.sorter + "-" + std::to_string(e.n), absort::netlist::to_string(e.backend));
  }
  r.info("service.jit_compiles", static_cast<double>(s.jit_compiles));
  r.info("service.jit_cache_hits", static_cast<double>(s.jit_cache_hits));
  r.info("service.jit_fallbacks", static_cast<double>(s.jit_fallbacks));
}

void record_phase(Report& r, const PhaseResult& p) {
  r.info("attempted", static_cast<double>(p.attempted));
  r.info("failed", static_cast<double>(p.failed));
  for (const auto& [status, count] : p.failures) r.info("failed." + status, static_cast<double>(count));
  r.info("latency_samples", static_cast<double>(p.lat.count()));
  r.info("windows", static_cast<double>(p.window_rate.size()));
  r.info("ok_per_s.window_p10", quantile(p.window_rate, 0.10));
  r.info("ok_per_s.window_p90", quantile(p.window_rate, 0.90));
  r.info("gen.lag_p99_us", p.lag.quantile_us(0.99));
  r.info("gen.lag_samples", static_cast<double>(p.lag.count()));
  r.info("gen.threads", static_cast<double>(p.threads));
  r.info("gen.connections", static_cast<double>(connections()));
}

/// The end-to-end metrics of one phase.
struct EndToEnd {
  double ok_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

EndToEnd end_to_end(const PhaseResult& p) {
  return {median(p.window_rate), p.lat.quantile_us(0.50), p.lat.quantile_us(0.99)};
}

/// batch-offline's p50 is the geometric mean of each key's median run()
/// call, so that every key weighs the same.  A median over the calls of all
/// keys together would be the median of whichever key lies in the middle,
/// and move with that key's noise alone.
EndToEnd end_to_end(const OfflineResult& o) {
  std::vector<double> all;
  double log_sum = 0;
  for (const auto& k : o.call_us) {
    all.insert(all.end(), k.begin(), k.end());
    log_sum += std::log(quantile(k, 0.50));
  }
  const double p50 = std::exp(log_sum / static_cast<double>(o.call_us.size()));
  return {median(o.round_rate), p50, quantile(all, 0.99)};
}

/// latency_p99_us is not an end-to-end metric: it did not repeat within a
/// tenth across seeds (see README.md), so it is reported beside them and as
/// a per-layer diagnostic of traced runs.
void report_end_to_end(Report& r, const EndToEnd& e) {
  r.metric("ok_per_s", e.ok_per_s, "ops/s");
  r.metric("latency_p50_us", e.p50_us, "us");
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  r.info("latency_p99_us", e.p99_us);
}

int mode_setup(const Args& a) {
  if (is_batch(a.workload)) {
    auto engines = compile_offline();
    first_batch_answers(engines);
  } else {
    Stack st;
    first_answers(st, serving_keys(a.workload));
  }
  announce_ready();
  return 0;
}

int mode_run(const Args& a) {
  Report r;
  record_host(r);
  if (is_batch(a.workload)) {
    auto engines = compile_offline();
    first_batch_answers(engines);
    announce_ready();
    for (const auto& e : engines) {
      check_engine_bit_exact(e, a.seed, kBitExactSamples);
      r.info("backend." + e.key.label, absort::netlist::to_string(e.batch->backend()));
    }
    auto batches = offline_batches(a.seed);
    run_offline(engines, batches, kWarmupSeconds, false);
    const OfflineResult o = run_offline(engines, batches, a.seconds, false);
    report_end_to_end(r, end_to_end(o));
    record_jit(r, "");
    r.info("attempted", static_cast<double>(o.attempted));
    r.info("failed", static_cast<double>(o.failed));
    r.info("rounds", static_cast<double>(o.round_rate.size()));
    r.info("ok_per_s.round_p10", quantile(o.round_rate, 0.10));
    r.info("ok_per_s.round_p90", quantile(o.round_rate, 0.90));
    for (std::size_t k = 0; k < engines.size(); ++k) {
      r.info("latency_p50_us." + engines[k].key.label, quantile(o.call_us[k], 0.50));
      r.info("latency_samples." + engines[k].key.label, static_cast<double>(o.call_us[k].size()));
    }
    r.print("metrics");
    return 0;
  }
  Stack st;
  const auto keys = serving_keys(a.workload);
  first_answers(st, keys);
  announce_ready();
  check_bit_exact(st, keys, a.seed, kBitExactSamples);
  const Load load = serving_load(a.workload, a.seed, a.seconds);
  drive_edge(st, load, kWarmupSeconds, false);
  const PhaseResult p = drive_edge(st, load, a.seconds, false);
  report_end_to_end(r, end_to_end(p));
  record_phase(r, p);
  record_engines(r, st.sort.stats());
  r.print("metrics");
  return 0;
}

int mode_ladder(const Args& a) {
  Report r;
  record_host(r);
  // Compile every key first (each cold: no two share a kernel), then warm
  // up, then sample the rungs in interleaved passes.
  std::vector<Engine> engines;
  for (const auto& label : ladder_keys()) engines.push_back(compile_engine(parse_key(label)));
  std::vector<Batch> batches;
  for (const auto& e : engines) batches.push_back(make_batch(e.key, a.seed, kOfflineBatch));
  run_offline(engines, batches, kWarmupSeconds, false);
  std::vector<std::unique_ptr<KeyLadder>> ladders;
  for (std::size_t k = 0; k < engines.size(); ++k) {
    ladders.push_back(std::make_unique<KeyLadder>(engines[k], batches[k]));
  }
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    for (auto& l : ladders) l->sample(kLadderPassSeconds);
  }
  for (const auto& l : ladders) l->report(r);
  record_jit(r, "ladder.");
  r.print("metrics");
  return 0;
}

service::HistogramSnapshot minus(const service::HistogramSnapshot& after,
                                 const service::HistogramSnapshot& before) {
  service::HistogramSnapshot d;
  for (std::size_t b = 0; b < d.counts.size(); ++b) d.counts[b] = after.counts[b] - before.counts[b];
  d.total = after.total - before.total;
  d.sum = after.sum - before.sum;
  return d;
}

/// Duration of each span named `name`, by request id.
std::unordered_map<std::uint64_t, double> durations_us(const SpanLog& spans, const char* name) {
  std::unordered_map<std::uint64_t, double> d;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, name) == 0) d[s.request] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return d;
}

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << "name,parent,request,key,start_ns,end_ns\n";
  for (const auto* log : logs) {
    for (const auto& s : *log) {
      f << s.name << ',' << s.parent << ',' << s.request << ',' << s.key << ',' << s.start_ns
        << ',' << s.end_ns << '\n';
    }
  }
}

/// Requests (or vectors) attempted and failed over a traced run's phases.
struct Counts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  template <typename Result>
  void add(const Result& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
};

int mode_trace(const Args& a) {
  Report r;
  record_host(r);
  const bool batch = is_batch(a.workload);
  // The phases below share the run's seconds: untraced and traced
  // end-to-end, the service rung, and for batch-offline the edge replay and
  // the Permute share as well.
  const double slice = a.seconds / (batch ? 5.0 : 3.0);

  // The stack starts on the empty JIT cache, so its jit counters are cold.
  Stack st;
  const Load load = serving_load(a.workload, a.seed, slice);
  first_answers(st, load.keys);
  const bool has_permute =
      std::any_of(load.keys.begin(), load.keys.end(), [](const Key& k) { return k.permute; });
  const Load permute_load = permute_share_load(a.seed, slice, kOpenRate);
  if (!has_permute) first_answers(st, permute_load.keys);
  // The jit counters are process-wide deltas: read them before this process
  // compiles anything itself.
  const auto cold = st.sort.stats();

  Counts counts;
  EndToEnd plain, traced;
  OfflineResult offline;  // batch-offline's traced phase
  if (batch) {
    auto engines = compile_offline();
    auto batches = offline_batches(a.seed);
    run_offline(engines, batches, kWarmupSeconds, false);
    const OfflineResult o = run_offline(engines, batches, slice, false);
    offline = run_offline(engines, batches, slice, true);
    plain = end_to_end(o);
    traced = end_to_end(offline);
    counts.add(o);
    counts.add(offline);
  } else {
    drive_edge(st, load, kWarmupSeconds, false);
    const PhaseResult p = drive_edge(st, load, slice, false);
    plain = end_to_end(p);
    counts.add(p);
  }

  // The edge rung, traced: the workload itself (edge workloads) or a
  // closed-loop replay of its vectors (batch-offline).  Service stats and
  // edge counters are read around it.
  const auto s1 = st.sort.stats();
  const auto c1 = st.server->counters();
  const PhaseResult edge = drive_edge(st, load, slice, true);
  const auto s2 = st.sort.stats();
  const auto c2 = st.server->counters();
  counts.add(edge);
  if (!batch) {
    traced = end_to_end(edge);
    record_phase(r, edge);
  }

  // The service rung: the same stream in process, plus the Permute share
  // on its own for workloads that send none.
  const PhaseResult svc = drive_in_process(st, load, slice, true);
  const PhaseResult perm =
      has_permute ? PhaseResult{} : drive_in_process(st, permute_load, slice, true);
  counts.add(svc);
  counts.add(perm);

  // The run rung: one BatchSorter::run call at the traced phase's mean batch
  // size, per key.
  const double mean_batch = minus(s2.batch_size, s1.batch_size).mean();
  std::vector<double> run_us(load.keys.size(), 0.0);
  for (std::size_t k = 0; k < load.keys.size(); ++k) {
    if (load.keys[k].permute) continue;
    Engine e = compile_engine(load.keys[k]);
    Batch b = make_batch(load.keys[k], a.seed, 64);
    run_us[k] = run_call_us(*e.batch, b, static_cast<std::size_t>(std::lround(std::max(1.0, mean_batch))));
    r.info("run_us_at_mean_batch." + load.keys[k].label, run_us[k]);
  }

  // Self times: a span minus its child span for the same request.
  const auto edge_us = durations_us(edge.spans, "edge");
  std::vector<double> edge_self, service_self, permute_us;
  for (const auto* log : {&svc.spans, &perm.spans}) {
    const Load& l = log == &svc.spans ? load : permute_load;
    for (const auto& s : *log) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (l.keys[s.key].permute) {
        permute_us.push_back(d);
      } else {
        service_self.push_back(d - run_us[s.key]);
      }
      if (log != &svc.spans) continue;
      if (const auto it = edge_us.find(s.request); it != edge_us.end()) {
        edge_self.push_back(it->second - d);
      }
    }
  }

  const auto end = st.sort.stats();
  const auto counters = st.server->counters();
  const auto queue_wait = minus(s2.queue_wait_us, s1.queue_wait_us);
  const auto eval = minus(s2.eval_us, s1.eval_us);
  const auto requests = c2.requests - c1.requests;
  const auto bytes = (c2.bytes_in - c1.bytes_in) + (c2.bytes_out - c1.bytes_out);
  r.metric("service.jit_compiles", static_cast<double>(cold.jit_compiles), "count");
  r.metric("service.jit_cache_hits", static_cast<double>(cold.jit_cache_hits), "count");
  r.metric("service.jit_fallbacks", static_cast<double>(cold.jit_fallbacks), "count");
  r.metric("service.queue_wait_p50_us", static_cast<double>(queue_wait.percentile(0.50)), "us");
  r.metric("service.queue_wait_p99_us", static_cast<double>(queue_wait.percentile(0.99)), "us");
  r.metric("service.eval_p50_us", static_cast<double>(eval.percentile(0.50)), "us");
  r.metric("service.batch_size_mean", mean_batch, "count");
  r.metric("service.lane_occupancy",
           mean_batch / static_cast<double>(st.sort.options().max_batch_lanes), "ratio");
  r.metric("service.batches", static_cast<double>(s2.batches - s1.batches), "count");
  r.metric("service.self_us_p50", median(service_self), "us");
  r.metric("service.expired", static_cast<double>(end.expired), "count");
  r.metric("service.rejected", static_cast<double>(end.rejected), "count");
  r.metric("service.degraded", static_cast<double>(end.degraded), "count");
  r.metric("permute.submit_p50_us", median(permute_us), "us");
  r.metric("edge.self_us_p50", quantile(edge_self, 0.50), "us");
  r.metric("edge.self_us_p99", quantile(edge_self, 0.99), "us");
  r.metric("edge.codec_ns_per_frame", codec_ns_per_frame(load, 4096), "ns");
  r.metric("edge.bytes_per_request",
           requests ? static_cast<double>(bytes) / static_cast<double>(requests) : 0.0, "bytes");
  r.metric("edge.shedded", static_cast<double>(counters.shedded), "count");
  r.metric("edge.decode_errors", static_cast<double>(counters.decode_errors), "count");
  r.metric("fail_ratio",
           counts.attempted
               ? static_cast<double>(counts.failed) / static_cast<double>(counts.attempted)
               : 0.0,
           "ratio");
  r.metric("latency_p99_us", plain.p99_us, "us");
  r.metric("trace.overhead_ok_per_s", traced.ok_per_s - plain.ok_per_s, "ops/s");
  r.metric("trace.overhead_latency_p50_us", traced.p50_us - plain.p50_us, "us");
  r.metric("trace.overhead_latency_p99_us", traced.p99_us - plain.p99_us, "us");
  record_engines(r, cold);
  r.info("attempted", static_cast<double>(counts.attempted));
  r.info("failed", static_cast<double>(counts.failed));
  r.info("edge_self_samples", static_cast<double>(edge_self.size()));
  r.info("untraced.ok_per_s", plain.ok_per_s);
  r.info("traced.ok_per_s", traced.ok_per_s);
  write_spans(a.spans, {&offline.spans, &edge.spans, &svc.spans, &perm.spans});
  r.print("metrics");
  return 0;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  const bool known = a.workload == "batch-offline" || a.workload == "edge-open-mixed" ||
                     a.workload == "edge-closed-hot";
  return a.mode == "ladder" || known;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: layerbench setup|run|trace --workload "
                 "batch-offline|edge-open-mixed|edge-closed-hot --seed S [--seconds T] "
                 "[--spans FILE]\n       layerbench ladder --seed S\n");
    return 2;
  }
  try {
    if (a.mode == "setup") return mode_setup(a);
    if (a.mode == "run") return mode_run(a);
    if (a.mode == "ladder") return mode_ladder(a);
    if (a.mode == "trace") return mode_trace(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "layerbench: unknown mode '%s'\n", a.mode.c_str());
  return 2;
}
