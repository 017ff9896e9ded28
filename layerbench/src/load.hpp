#pragma once
// Load generation for the serving layers: seeded request streams, the
// service + edge stack every serving workload runs on (all default options),
// and two load loops that push one stream through it -- over loopback TCP
// (EdgeClient -> EdgeServer -> services) or in process (SortService /
// PermuteService submit -> future).  Both check every answer and
// share one connection model:
//
//   * open loop: each connection has a sender that follows an absolute
//     Poisson schedule and a receiver; latency is timed from the *scheduled*
//     send time, and the sender's lateness is recorded;
//   * closed loop: each connection keeps `window` requests in flight,
//     cycling a seeded input pool; latency is timed from the send.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "absort/edge/edge_server.hpp"
#include "absort/service/permute_service.hpp"
#include "absort/service/sort_service.hpp"
#include "common.hpp"

namespace lb {

/// One request of a stream.
struct Item {
  std::uint32_t key = 0;   ///< index into Load::keys
  std::int64_t at_ns = 0;  ///< open loop: scheduled offset from the phase start
  BitVec input;            ///< Sort keys
  std::uint32_t ones = 0;  ///< population count of `input`
  std::vector<std::uint16_t> dest16;  ///< Permute keys, wire form
  std::vector<std::uint32_t> dest32;  ///< the same permutation, service form
};

struct LoadSpec {
  bool open = false;
  double rate = 0;          ///< open loop: offered requests/s over all connections
  std::size_t conns = 2;    ///< connections (in process: producers)
  std::size_t window = 32;  ///< most requests in flight per connection
};

struct Load {
  LoadSpec spec;
  std::vector<Key> keys;
  /// One stream per connection: the whole schedule (open loop) or an input
  /// pool cycled in order (closed loop).
  std::vector<std::vector<Item>> streams;
};

/// edge-open-mixed: Poisson arrivals at `rate` req/s split over `conns`
/// connections, for `seconds`, drawn from the heavy-tailed mix (60% prefix-64,
/// 18% mux-merger-256, 7% mux-merger-1024, 5% batcher-32, 10% Permute on
/// benes-64).
Load open_mixed_load(std::uint64_t seed, double seconds, double rate, std::size_t conns);

/// Open-loop Permute share alone (benes-64 at 10% of `rate`), for workloads
/// that send no Permute traffic themselves.
Load permute_share_load(std::uint64_t seed, double seconds, double rate);

/// Closed loop over `keys` (sort keys only), `conns` x `window` in flight;
/// each connection's pool cycles the keys round robin.
Load closed_load(std::uint64_t seed, const std::vector<std::string>& keys, std::size_t conns,
                 std::size_t window, std::size_t pool_per_conn);

/// The serving stack: SortService and PermuteService behind one EdgeServer,
/// every one with default options.
struct Stack {
  absort::service::SortService sort;
  absort::service::PermuteService permute;
  std::unique_ptr<absort::edge::EdgeServer> server;

  Stack();
  /// Restarts the edge after a drain timeout stopped it.
  void ensure_running();
  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

/// Outcome of one driven phase.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  ///< any non-Ok status, plus requests never answered
  std::map<std::string, std::size_t> failures;  ///< failed, by status
  LatencyHistogram lat;        ///< one sample per Ok answer
  LatencyHistogram lag;        ///< open loop: actual minus scheduled send
  std::vector<double> window_rate;  ///< Ok answers/s in each full kWindow of the phase
  SpanLog spans;               ///< traced phases: one span per Ok answer
  std::size_t threads = 0;     ///< generator threads used
};

/// Width of the windows PhaseResult::window_rate counts Ok answers in.
inline constexpr std::int64_t kWindowNs = 250'000'000;

/// Request id shared by the edge and in-process replays of one stream.
inline std::uint64_t request_id(std::size_t conn, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(conn) << 40) | seq;
}

/// Drives `load` through the edge over loopback for `seconds`.  Spans are
/// named "edge" when `traced`.
PhaseResult drive_edge(Stack& st, const Load& load, double seconds, bool traced);

/// Drives `load` through SortService / PermuteService::submit in process
/// for `seconds`, with the edge's waiter count resolving the futures.
/// Spans are named "service" (parent "edge") when `traced`.
PhaseResult drive_in_process(Stack& st, const Load& load, double seconds, bool traced);

/// Sends one request per key through the edge and checks each answer --
/// the set-up probe ("every key answered once, correctly").
void first_answers(Stack& st, const std::vector<Key>& keys);

/// Checks `samples` inputs per key bit-exact through the edge against
/// BinarySorter::sort and Circuit::eval (Sort) or Permuter::route (Permute).
void check_bit_exact(Stack& st, const std::vector<Key>& keys, std::uint64_t seed,
                     std::size_t samples);

/// Median time to encode and decode one frame, over the request frames of
/// the first `items` items of `load`'s first stream and their Ok response
/// frames, through the public frame codec.
double codec_ns_per_frame(const Load& load, std::size_t items);

}  // namespace lb
