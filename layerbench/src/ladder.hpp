#pragma once
// The in-process rungs of the layer ladder -- engine compilation, the kernel
// on pre-packed lanes, the one-thread lane block (pack + kernel + unpack),
// and BatchSorter::run -- plus the batch-offline workload, which is the last
// rung run on its own.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "absort/netlist/batch_eval.hpp"
#include "absort/sorters/sorter.hpp"
#include "common.hpp"

namespace lb {

/// Vectors per key per batch-offline round (and per ladder measurement).
inline constexpr std::size_t kOfflineBatch = 16384;

/// One key compiled with default BatchOptions (threads = 0, Backend::Auto).
struct Engine {
  Key key;
  std::unique_ptr<absort::sorters::BinarySorter> sorter;
  std::unique_ptr<absort::sorters::BatchSorter> batch;
  double compile_ms = 0;  ///< make_batch_sorter wall time
};

/// Builds and compiles `key`, timing make_batch_sorter.
Engine compile_engine(const Key& key);

/// Seeded input vectors for one key, their population counts, and output
/// buffers sized for them.
struct Batch {
  std::vector<BitVec> in;
  std::vector<std::uint32_t> ones;
  std::vector<BitVec> out;
};
Batch make_batch(const Key& key, std::uint64_t seed, std::size_t count);

/// Checks the first `count` outputs of `b` (every answer): a wrong one ends
/// the benchmark.
void check_outputs(const Key& key, const Batch& b, std::size_t count);

/// Checks `samples` inputs bit-exact: BatchSorter::run against
/// BinarySorter::sort and, for combinational sorters, Circuit::eval.
void check_engine_bit_exact(const Engine& e, std::uint64_t seed, std::size_t samples);

/// Answers each key once on a few vectors -- batch-offline's set-up probe.
void first_batch_answers(std::vector<Engine>& engines);

struct OfflineResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> round_rate;  ///< vectors/s of run() wall clock, per round
  std::vector<std::vector<double>> call_us;  ///< per key: one per BatchSorter::run call
  SpanLog spans;                   ///< traced runs: one "run" span per call
};

/// batch-offline: rounds of one kOfflineBatch run() per key, each output
/// checked, for `seconds`.
OfflineResult run_offline(std::vector<Engine>& engines, std::vector<Batch>& batches,
                          double seconds, bool traced);

/// The ladder for one key on `b`: the resolved backend's widest pass on
/// pre-packed lanes (kernel), the one-thread lane block (pack + kernel +
/// unpack), and BatchSorter::run at default threads.  sample() may be called
/// several times, interleaved with other keys, so that a slow spell of the
/// host spreads over every key; report() writes the medians as netlist.* and
/// sorters.* metrics, with the compile time and program size.
class KeyLadder {
 public:
  KeyLadder(Engine& e, Batch& b);
  KeyLadder(const KeyLadder&) = delete;  // the rung callables capture `this`
  KeyLadder& operator=(const KeyLadder&) = delete;

  void sample(double budget_s);
  void report(Report& r) const;

 private:
  Engine& e_;
  Batch& b_;
  std::size_t ops_after_ = 0;
  std::string backend_;
  std::function<void()> kernel_;      ///< one 512-lane pass
  std::function<void()> lane_block_;  ///< the whole batch, one thread
  std::vector<std::unique_ptr<absort::netlist::BitSlicedEvaluator>> evals_;
  std::unique_ptr<absort::sorters::BatchSorter> one_thread_;
  std::deque<std::vector<absort::wordvec::Vec>> buffers_;  ///< deque: stable references
  std::vector<double> kernel_ns_, lane_ns_, run_ns_;  ///< per vector, per sample
};

/// Median wall time of one BatchSorter::run call on the first `size`
/// vectors of `b`, in microseconds.
double run_call_us(absort::sorters::BatchSorter& bs, Batch& b, std::size_t size);

}  // namespace lb
