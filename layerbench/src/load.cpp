#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "absort/edge/edge_client.hpp"
#include "absort/networks/permuters.hpp"
#include "absort/sorters/registry.hpp"
#include "absort/util/rng.hpp"

namespace lb {
namespace {

using absort::Xoshiro256;
namespace edge = absort::edge;
namespace service = absort::service;

constexpr const char* kHost = "127.0.0.1";
/// Id of the Stats request that closes a connection's stream: its answer
/// tells the receiver that the sender is done.
constexpr std::uint64_t kSentinel = ~std::uint64_t{0};
/// How long answers may trail the last send before they count as missing.
constexpr auto kDrain = std::chrono::seconds(5);

double uniform01(Xoshiro256& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

/// Independent, reproducible stream seeds from the workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Item make_item(Xoshiro256& rng, const std::vector<Key>& keys, std::uint32_t k) {
  Item it;
  it.key = k;
  const Key& key = keys[k];
  if (key.permute) {
    for (const std::size_t d : absort::workload::random_permutation(rng, key.n)) {
      it.dest16.push_back(static_cast<std::uint16_t>(d));
      it.dest32.push_back(static_cast<std::uint32_t>(d));
    }
  } else {
    it.input = absort::workload::random_bits(rng, key.n);
    it.ones = static_cast<std::uint32_t>(it.input.count_ones());
  }
  return it;
}

/// Items drawn by draw() at the arrival times of a Poisson process of
/// `rate`/s over [0, seconds).
template <typename Draw>
std::vector<Item> poisson_stream(Xoshiro256& rng, double rate, double seconds, Draw&& draw) {
  std::vector<Item> items;
  for (double t = 0;;) {
    t += -std::log(1.0 - uniform01(rng)) / rate;
    if (t >= seconds) return items;
    items.push_back(draw());
    items.back().at_ns = static_cast<std::int64_t>(t * 1e9);
  }
}

/// Flow control of one connection: `window` in-flight slots, taken by the
/// sender and returned by whoever sees the answer.
class Window {
 public:
  explicit Window(std::size_t n) : sent_ns(n) {
    for (std::size_t i = n; i-- > 0;) free_.push_back(static_cast<std::uint32_t>(i));
  }

  /// Takes a free slot; false when none frees up before `until`.
  bool acquire(Clock::time_point until, std::uint32_t& slot) {
    std::unique_lock lk(m_);
    if (!cv_.wait_until(lk, until, [&] { return !free_.empty(); })) return false;
    slot = free_.back();
    free_.pop_back();
    return true;
  }

  void release(std::uint32_t slot) {
    {
      std::lock_guard lk(m_);
      free_.push_back(slot);
    }
    cv_.notify_all();
  }

  /// Waits until every slot is back; false on timeout.
  bool wait_idle(Clock::time_point until) {
    std::unique_lock lk(m_);
    return cv_.wait_until(lk, until, [&] { return free_.size() == sent_ns.size(); });
  }

  /// Send time of the request occupying each slot.
  std::vector<std::atomic<std::int64_t>> sent_ns;

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::uint32_t> free_;
};

/// Answers seen by one receiving thread.
struct Tally {
  std::size_t answered = 0;
  std::size_t ok = 0;
  std::map<std::string, std::size_t> failures;
  LatencyHistogram lat;
  SpanLog spans;
  std::int64_t t0_ns = 0;            ///< phase start, origin of `windows`
  std::vector<std::size_t> windows;  ///< Ok answers per kWindowNs since t0_ns
};

void check_sort(const Key& key, const Item& it, const BitVec& out) {
  if (!sorted_with_ones(out, key.n, it.ones)) {
    wrong_answer(key.label + ": output " + out.str() + " for input " + it.input.str());
  }
}

template <typename S>
void check_permute(const Key& key, const Item& it, const std::vector<S>& output_source) {
  if (!is_inverse(it.dest32, output_source)) {
    wrong_answer(key.label + ": output_source is not the inverse of dest");
  }
}

void record_ok(Tally& t, bool traced, const char* name, const char* parent, std::uint64_t id,
               std::uint32_t key, std::int64_t start, std::int64_t end) {
  ++t.ok;
  t.lat.record_ns(end - start);
  const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, end - t.t0_ns) / kWindowNs);
  if (t.windows.size() <= w) t.windows.resize(w + 1);
  ++t.windows[w];
  if (traced) t.spans.push_back(Span{name, parent, id, key, start, end});
}

/// Fills `req` for stream item `it` (reusing its buffers).
void fill_request(edge::Request& req, const Load& load, const Item& it, std::uint64_t id) {
  const Key& k = load.keys[it.key];
  req.id = id;
  req.deadline_us = 0;
  req.sorter = k.family;
  if (k.permute) {
    req.type = edge::MessageType::Permute;
    req.dest = it.dest16;
  } else {
    req.type = edge::MessageType::Sort;
    req.input = it.input;
  }
}

/// Runs one connection's sender loop: the open-loop schedule (stopping at
/// `seconds`) or the closed-loop window until `t_end`.  `submit(seq, item,
/// slot, start_ns)` issues one request; returns the number issued.
///
/// The open loop also holds a window slot per request, so it never has more
/// than the edge's per-connection in-flight cap outstanding: when the host
/// stalls, the sends due meanwhile go out late (their latency still counts
/// from the schedule, and the delay shows in `lag`) instead of being shed.
template <typename Submit>
std::size_t run_sender(const Load& load, std::size_t c, Clock::time_point t0,
                       Clock::time_point t_end, Window& window, LatencyHistogram& lag,
                       Submit&& submit) {
  const auto& items = load.streams[c];
  const std::int64_t horizon = std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t0).count();
  std::size_t seq = 0;
  if (load.spec.open) {
    for (; seq < items.size() && items[seq].at_ns < horizon; ++seq) {
      const auto sched = t0 + std::chrono::nanoseconds(items[seq].at_ns);
      std::this_thread::sleep_until(sched);
      std::uint32_t slot = 0;
      if (!window.acquire(t_end + kDrain, slot)) break;
      const std::int64_t start = to_ns(sched);
      lag.record_ns(now_ns() - start);
      if (!submit(seq, items[seq], slot, start)) break;
    }
    return seq;
  }
  for (;; ++seq) {
    std::uint32_t slot = 0;
    if (Clock::now() >= t_end || !window.acquire(t_end, slot)) break;
    const std::int64_t start = now_ns();
    window.sent_ns[slot].store(start, std::memory_order_relaxed);
    if (!submit(seq, items[seq % items.size()], slot, start)) break;
  }
  window.wait_idle(Clock::now() + kDrain);
  return seq;
}

/// A future holding the exception in flight.
template <typename T>
std::future<T> failed_future() {
  std::promise<T> p;
  p.set_exception(std::current_exception());
  return p.get_future();
}

/// Folds `t` into `r`; window_rate is finished by finish_windows().
void merge(PhaseResult& r, Tally& t, std::vector<std::size_t>& windows) {
  if (windows.size() < t.windows.size()) windows.resize(t.windows.size());
  for (std::size_t i = 0; i < t.windows.size(); ++i) windows[i] += t.windows[i];
  r.ok += t.ok;
  for (const auto& [k, v] : t.failures) {
    r.failures[k] += v;
    r.failed += v;
  }
  r.lat.merge(t.lat);
  r.spans.insert(r.spans.end(), t.spans.begin(), t.spans.end());
}

/// Ok answers/s of every window that lies wholly inside the phase.
void finish_windows(PhaseResult& r, const std::vector<std::size_t>& windows, double seconds) {
  const auto full = static_cast<std::size_t>(seconds * 1e9 / static_cast<double>(kWindowNs));
  for (std::size_t i = 0; i < full; ++i) {
    r.window_rate.push_back(static_cast<double>(i < windows.size() ? windows[i] : 0) * 1e9 /
                            static_cast<double>(kWindowNs));
  }
}

/// The open loop's window: the edge's per-connection in-flight cap, at most
/// the 256 slots the low byte of a request id can name.
std::size_t open_window() {
  return std::min<std::size_t>(edge::EdgeOptions{}.max_inflight_per_conn, 0x100);
}

}  // namespace

Load open_mixed_load(std::uint64_t seed, double seconds, double rate, std::size_t conns) {
  Load l;
  l.spec = LoadSpec{true, rate, conns, open_window()};
  l.keys = {parse_key("prefix-64"), parse_key("mux-merger-256"), parse_key("mux-merger-1024"),
            parse_key("batcher-32"), parse_key("benes-64", true)};
  static constexpr double kCumulative[] = {0.60, 0.78, 0.85, 0.90, 1.0};
  for (std::size_t c = 0; c < conns; ++c) {
    Xoshiro256 rng(stream_seed(seed, 100 + c));
    l.streams.push_back(poisson_stream(rng, rate / static_cast<double>(conns), seconds, [&] {
      const double u = uniform01(rng);
      std::uint32_t k = 0;
      while (u >= kCumulative[k]) ++k;
      return make_item(rng, l.keys, k);
    }));
  }
  return l;
}

Load permute_share_load(std::uint64_t seed, double seconds, double rate) {
  Load l;
  l.spec = LoadSpec{true, rate * 0.10, 1, open_window()};
  l.keys = {parse_key("benes-64", true)};
  Xoshiro256 rng(stream_seed(seed, 300));
  l.streams.push_back(
      poisson_stream(rng, l.spec.rate, seconds, [&] { return make_item(rng, l.keys, 0); }));
  return l;
}

Load closed_load(std::uint64_t seed, const std::vector<std::string>& keys, std::size_t conns,
                 std::size_t window, std::size_t pool_per_conn) {
  Load l;
  l.spec = LoadSpec{false, 0, conns, window};
  for (const auto& k : keys) l.keys.push_back(parse_key(k));
  for (std::size_t c = 0; c < conns; ++c) {
    Xoshiro256 rng(stream_seed(seed, 200 + c));
    std::vector<Item> items;
    for (std::size_t i = 0; i < pool_per_conn; ++i) {
      items.push_back(make_item(rng, l.keys, static_cast<std::uint32_t>(i % keys.size())));
    }
    l.streams.push_back(std::move(items));
  }
  return l;
}

Stack::Stack() : server(std::make_unique<edge::EdgeServer>(sort, permute)) { server->start(); }

void Stack::ensure_running() {
  if (server->running()) return;
  server.reset();
  server = std::make_unique<edge::EdgeServer>(sort, permute);
  server->start();
}

PhaseResult drive_edge(Stack& st, const Load& load, double seconds, bool traced) {
  st.ensure_running();
  const std::size_t conns = load.streams.size();
  struct Conn {
    edge::EdgeClient client;
    std::unique_ptr<Window> window;
    std::atomic<std::size_t> sent{0};
    bool done = false;  ///< receiver finished; guarded by done_m
    LatencyHistogram lag;
    Tally tally;
  };
  std::vector<std::unique_ptr<Conn>> cs;
  for (std::size_t c = 0; c < conns; ++c) {
    cs.push_back(std::make_unique<Conn>());
    cs[c]->client.connect(kHost, st.port());
    cs[c]->window = std::make_unique<Window>(std::max<std::size_t>(1, load.spec.window));
  }
  std::mutex done_m;
  std::condition_variable done_cv;

  const bool open = load.spec.open;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto t_end = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const std::int64_t t0_ns = to_ns(t0);

  std::vector<std::thread> receivers, senders;
  for (std::size_t c = 0; c < conns; ++c) {
    cs[c]->tally.t0_ns = t0_ns;
    receivers.emplace_back([&, c] {
      Conn& cn = *cs[c];
      const auto& items = load.streams[c];
      Tally& t = cn.tally;
      edge::Response resp;
      bool closing = false;
      try {
        while (cn.client.recv(resp)) {
          const std::int64_t now = now_ns();
          if (resp.id == kSentinel) {
            closing = true;
          } else {
            ++t.answered;
            const std::uint64_t seq = resp.id >> 8;
            const auto slot = static_cast<std::uint32_t>(resp.id & 0xFF);
            const std::int64_t start =
                open ? t0_ns + items[seq].at_ns
                     : cn.window->sent_ns[slot].load(std::memory_order_relaxed);
            const Item& it = items[seq % items.size()];
            const Key& key = load.keys[it.key];
            if (resp.status == edge::WireStatus::Ok) {
              if (key.permute) {
                check_permute(key, it, resp.output_source);
              } else {
                check_sort(key, it, resp.output);
              }
              record_ok(t, traced, "edge", "", request_id(c, seq), it.key, start, now);
            } else {
              ++t.failures[edge::to_string(resp.status)];
            }
            cn.window->release(slot);
          }
          if (closing && t.answered == cn.sent.load()) break;
        }
      } catch (const std::exception&) {
        // A stream torn by the forced stop below; what was not answered
        // counts as failed.
      }
      {
        std::lock_guard lk(done_m);
        cn.done = true;
      }
      done_cv.notify_all();
    });
    senders.emplace_back([&, c] {
      Conn& cn = *cs[c];
      edge::Request req;
      try {
        run_sender(load, c, t0, t_end, *cn.window, cn.lag,
                   [&](std::uint64_t seq, const Item& it, std::uint32_t slot, std::int64_t) {
                     fill_request(req, load, it, (seq << 8) | slot);
                     cn.sent.fetch_add(1);
                     cn.client.send(req);
                     return true;
                   });
        req = edge::Request{};
        req.type = edge::MessageType::Stats;
        req.id = kSentinel;
        cn.client.send(req);
      } catch (const std::exception&) {
        // Broken connection: the receiver sees EOF; unanswered sends fail.
      }
    });
  }
  for (auto& s : senders) s.join();
  {
    std::unique_lock lk(done_m);
    const bool drained = done_cv.wait_until(lk, Clock::now() + kDrain, [&] {
      return std::all_of(cs.begin(), cs.end(), [](const auto& cn) { return cn->done; });
    });
    if (!drained) {
      lk.unlock();
      st.server->stop();  // unblocks the receivers with EOF
    }
  }
  for (auto& r : receivers) r.join();

  PhaseResult r;
  r.threads = 2 * conns;
  std::vector<std::size_t> windows;
  for (auto& cn : cs) {
    const std::size_t sent = cn->sent.load();
    r.attempted += sent;
    if (cn->tally.answered < sent) {
      cn->tally.failures["unanswered"] += sent - cn->tally.answered;
    }
    r.lag.merge(cn->lag);
    merge(r, cn->tally, windows);
    cn->client.close();
  }
  finish_windows(r, windows, seconds);
  return r;
}

PhaseResult drive_in_process(Stack& st, const Load& load, double seconds, bool traced) {
  const std::size_t conns = load.streams.size();
  struct Pending {
    std::size_t conn = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::int64_t start = 0;
    std::future<service::SortResult> sort;
    std::future<service::PermuteResult> permute;
  };
  std::mutex qm;
  std::condition_variable qcv;
  std::deque<Pending> queue;  // guarded by qm
  bool closed = false;        // guarded by qm

  std::vector<std::unique_ptr<Window>> flow;
  std::vector<LatencyHistogram> lags(conns);
  std::vector<std::size_t> sent(conns, 0);
  for (std::size_t c = 0; c < conns; ++c) {
    flow.push_back(std::make_unique<Window>(std::max<std::size_t>(1, load.spec.window)));
  }
  const std::size_t waiters = edge::EdgeOptions{}.waiters;
  std::vector<Tally> tallies(waiters);

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto t_end = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  for (auto& t : tallies) t.t0_ns = to_ns(t0);

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < waiters; ++w) {
    threads.emplace_back([&, w] {
      Tally& t = tallies[w];
      for (;;) {
        Pending p;
        {
          std::unique_lock lk(qm);
          qcv.wait(lk, [&] { return !queue.empty() || closed; });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        const auto& items = load.streams[p.conn];
        const Item& it = items[p.seq % items.size()];
        const Key& key = load.keys[it.key];
        const char* failure = nullptr;
        try {
          if (key.permute) {
            auto res = p.permute.get();
            if (res.status == service::Status::Ok) check_permute(key, it, res.output_source);
            if (res.status != service::Status::Ok) failure = service::to_string(res.status);
          } else {
            auto res = p.sort.get();
            if (res.status == service::Status::Ok) check_sort(key, it, res.output);
            if (res.status != service::Status::Ok) failure = service::to_string(res.status);
          }
        } catch (const std::exception&) {
          failure = "exception";  // an engine failure delivered through the future
        }
        const std::int64_t now = now_ns();
        ++t.answered;
        if (failure == nullptr) {
          record_ok(t, traced, "service", "edge", request_id(p.conn, p.seq), it.key, p.start,
                    now);
        } else {
          ++t.failures[failure];
        }
        flow[p.conn]->release(p.slot);
      }
    });
  }
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < conns; ++c) {
    senders.emplace_back([&, c] {
      sent[c] = run_sender(
          load, c, t0, t_end, *flow[c], lags[c],
          [&](std::uint64_t seq, const Item& it, std::uint32_t slot, std::int64_t start) {
            const Key& key = load.keys[it.key];
            Pending p;
            p.conn = c;
            p.seq = seq;
            p.slot = slot;
            p.start = start;
            try {
              if (key.permute) {
                p.permute = st.permute.submit(key.family, it.dest32);
              } else {
                p.sort = st.sort.submit(key.family, it.input);
              }
            } catch (...) {
              // A refused submit fails like an exception through the future.
              if (key.permute) {
                p.permute = failed_future<service::PermuteResult>();
              } else {
                p.sort = failed_future<service::SortResult>();
              }
            }
            {
              std::lock_guard lk(qm);
              queue.push_back(std::move(p));
            }
            qcv.notify_one();
            return true;
          });
    });
  }
  for (auto& s : senders) s.join();
  {
    std::lock_guard lk(qm);
    closed = true;
  }
  qcv.notify_all();
  for (auto& t : threads) t.join();

  PhaseResult r;
  r.threads = conns + waiters;
  for (std::size_t c = 0; c < conns; ++c) {
    r.attempted += sent[c];
    r.lag.merge(lags[c]);
  }
  std::vector<std::size_t> windows;
  for (auto& t : tallies) {
    merge(r, t, windows);
  }
  finish_windows(r, windows, seconds);
  return r;
}

void first_answers(Stack& st, const std::vector<Key>& keys) {
  edge::EdgeClient client;
  client.connect(kHost, st.port());
  Load load;
  load.keys = keys;
  std::vector<Item> probes;
  Xoshiro256 rng(stream_seed(0, 400));
  edge::Request req;
  for (std::uint32_t k = 0; k < load.keys.size(); ++k) {
    probes.push_back(make_item(rng, load.keys, k));
    fill_request(req, load, probes.back(), k + 1);
    client.send(req);
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    edge::Response resp;
    if (!client.recv(resp)) wrong_answer("edge closed during set-up");
    const Item& it = probes.at(resp.id - 1);
    const Key& key = load.keys[it.key];
    if (resp.status != edge::WireStatus::Ok) {
      wrong_answer(key.label + ": set-up request answered " + edge::to_string(resp.status));
    }
    if (key.permute) {
      check_permute(key, it, resp.output_source);
    } else {
      check_sort(key, it, resp.output);
    }
  }
}

void check_bit_exact(Stack& st, const std::vector<Key>& keys, std::uint64_t seed,
                     std::size_t samples) {
  edge::EdgeClient client;
  client.connect(kHost, st.port());
  Xoshiro256 rng(stream_seed(seed, 500));
  for (const Key& key : keys) {
    if (key.permute) {
      const auto fabric = absort::permuters::make_permuter(key.family, key.n);
      for (std::size_t s = 0; s < samples; ++s) {
        const auto dest = absort::workload::random_permutation(rng, key.n);
        const std::vector<std::uint16_t> dest16(dest.begin(), dest.end());
        const auto resp = client.permute(key.family, dest16);
        const auto host = fabric->route(dest);
        if (resp.status != edge::WireStatus::Ok || !host ||
            !std::equal(host->begin(), host->end(), resp.output_source.begin(),
                        resp.output_source.end())) {
          wrong_answer(key.label + ": edge answer differs from Permuter::route");
        }
      }
      continue;
    }
    const auto sorter = absort::sorters::make_sorter(key.family, key.n);
    const auto circuit = sorter->is_combinational()
                             ? std::optional<absort::netlist::Circuit>(sorter->build_circuit())
                             : std::nullopt;
    for (std::size_t s = 0; s < samples; ++s) {
      const BitVec in = absort::workload::random_bits(rng, key.n);
      const auto resp = client.sort(key.family, in);
      if (resp.status != edge::WireStatus::Ok || resp.output != sorter->sort(in) ||
          (circuit && resp.output != circuit->eval(in))) {
        wrong_answer(key.label + ": edge answer differs from BinarySorter::sort / "
                                 "Circuit::eval for input " + in.str());
      }
    }
  }
}

}  // namespace lb

namespace lb {

double codec_ns_per_frame(const Load& load, std::size_t items) {
  const auto& stream = load.streams.at(0);
  items = std::min(items, stream.size());
  std::vector<edge::Request> requests(items);
  std::vector<edge::Response> responses(items);
  for (std::size_t i = 0; i < items; ++i) {
    const Item& it = stream[i];
    const Key& key = load.keys[it.key];
    fill_request(requests[i], load, it, i + 1);
    responses[i].type = requests[i].type;
    responses[i].id = i + 1;
    if (key.permute) {
      responses[i].output_source.resize(key.n);
      for (std::size_t j = 0; j < key.n; ++j) {
        responses[i].output_source[it.dest16[j]] = static_cast<std::uint16_t>(j);
      }
    } else {
      responses[i].output = BitVec::sorted_with_ones(key.n, it.ones);
    }
  }
  std::vector<std::uint8_t> buf;
  edge::Request rq;
  edge::Response rs;
  std::vector<double> per_frame;
  const auto until = Clock::now() + std::chrono::milliseconds(250);
  while (per_frame.size() < 5 || Clock::now() < until) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < items; ++i) {
      buf.clear();
      edge::encode_request(requests[i], buf);
      if (!edge::decode_request(buf, rq).ok()) wrong_answer("request frame does not decode");
      buf.clear();
      edge::encode_response(responses[i], buf);
      if (!edge::decode_response(buf, rs).ok()) wrong_answer("response frame does not decode");
    }
    per_frame.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(2 * items));
  }
  return median(std::move(per_frame));
}

}  // namespace lb
