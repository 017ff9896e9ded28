#include "ladder.hpp"

#include <exception>
#include <optional>
#include <span>

#include "absort/netlist/batch_eval.hpp"
#include "absort/sorters/fish_sorter.hpp"
#include "absort/sorters/registry.hpp"
#include "absort/util/rng.hpp"
#include "absort/util/wordvec.hpp"

namespace lb {
namespace {

namespace netlist = absort::netlist;
namespace wordvec = absort::wordvec;
using wordvec::Vec;
using wordvec::Word;

/// The fewest samples a rung takes per call of sample() (or of
/// median_call_ns).
constexpr std::size_t kMinSamples = 3;

/// Median over repeated calls of f(), in nanoseconds per call, after one
/// untimed warm-up call.
template <typename F>
double median_call_ns(F&& f, double budget_s) {
  f();
  std::vector<double> samples;
  const auto until = Clock::now() + std::chrono::duration<double>(budget_s);
  while (samples.size() < kMinSamples || Clock::now() < until) {
    const std::int64_t t0 = now_ns();
    f();
    samples.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(samples));
}

/// Packs lanes [0, kBlockLanes) of `in` into the x2 SIMD layout the widest
/// pass reads: slot i occupies Vecs [2i, 2i + 2).
std::vector<Vec> pack_block(const std::vector<BitVec>& in, std::size_t wires) {
  constexpr std::size_t wps = 2 * wordvec::kSimdWords;
  std::vector<Vec> packed(2 * wires);
  wordvec::pack_lanes_wide(in, 0, netlist::kBlockLanes, wps,
                           {reinterpret_cast<Word*>(packed.data()), wps * wires});
  return packed;
}

}  // namespace

Engine compile_engine(const Key& key) {
  Engine e;
  e.key = key;
  const std::int64_t t0 = now_ns();
  e.sorter = absort::sorters::make_sorter(key.family, key.n);
  e.batch = e.sorter->make_batch_sorter({});
  e.compile_ms = static_cast<double>(now_ns() - t0) / 1e6;
  return e;
}

Batch make_batch(const Key& key, std::uint64_t seed, std::size_t count) {
  absort::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + key.n);
  Batch b;
  for (std::size_t i = 0; i < count; ++i) {
    b.in.push_back(absort::workload::random_bits(rng, key.n));
    b.ones.push_back(static_cast<std::uint32_t>(b.in.back().count_ones()));
  }
  b.out.assign(count, BitVec(key.n));
  return b;
}

void check_outputs(const Key& key, const Batch& b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!sorted_with_ones(b.out[i], key.n, b.ones[i])) {
      wrong_answer(key.label + ": output " + b.out[i].str() + " for input " + b.in[i].str());
    }
  }
}

void check_engine_bit_exact(const Engine& e, std::uint64_t seed, std::size_t samples) {
  Batch b = make_batch(e.key, seed ^ 0xB17E, samples);
  e.batch->run(b.in, b.out);
  const auto circuit = e.sorter->is_combinational()
                           ? std::optional<netlist::Circuit>(e.sorter->build_circuit())
                           : std::nullopt;
  for (std::size_t i = 0; i < samples; ++i) {
    if (b.out[i] != e.sorter->sort(b.in[i]) || (circuit && b.out[i] != circuit->eval(b.in[i]))) {
      wrong_answer(e.key.label + ": BatchSorter::run differs from BinarySorter::sort / "
                                 "Circuit::eval for input " + b.in[i].str());
    }
  }
}

void first_batch_answers(std::vector<Engine>& engines) {
  for (auto& e : engines) {
    Batch b = make_batch(e.key, 1, 4);
    e.batch->run(b.in, b.out);
    check_outputs(e.key, b, b.in.size());
  }
}

OfflineResult run_offline(std::vector<Engine>& engines, std::vector<Batch>& batches,
                          double seconds, bool traced) {
  OfflineResult r;
  r.call_us.resize(engines.size());
  const auto until = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::uint64_t round = 0; Clock::now() < until; ++round) {
    std::int64_t round_ns = 0;
    std::size_t round_ok = 0;
    for (std::size_t k = 0; k < engines.size(); ++k) {
      Batch& b = batches[k];
      r.attempted += b.in.size();
      const std::int64_t t0 = now_ns();
      try {
        engines[k].batch->run(b.in, b.out);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "layerbench: %s run failed: %s\n", engines[k].key.label.c_str(),
                     ex.what());
        r.failed += b.in.size();
        continue;
      }
      const std::int64_t t1 = now_ns();
      round_ns += t1 - t0;
      round_ok += b.in.size();
      r.call_us[k].push_back(static_cast<double>(t1 - t0) / 1e3);
      if (traced) {
        r.spans.push_back(Span{"run", "", round * engines.size() + k,
                               static_cast<std::uint32_t>(k), t0, t1});
      }
      check_outputs(engines[k].key, b, b.in.size());
    }
    if (round_ns > 0) {
      r.round_rate.push_back(static_cast<double>(round_ok) * 1e9 / static_cast<double>(round_ns));
    }
  }
  return r;
}

KeyLadder::KeyLadder(Engine& e, Batch& b) : e_(e), b_(b) {
  const std::size_t lanes = netlist::kBlockLanes;
  if (e.sorter->is_combinational()) {
    // The same program and (cached) kernel the BatchSorter runs.
    const auto& ev = *evals_.emplace_back(
        std::make_unique<netlist::BitSlicedEvaluator>(e.sorter->build_circuit()));
    ops_after_ = ev.stats().ops_after;
    backend_ = netlist::to_string(ev.backend());
    auto& in = buffers_.emplace_back(pack_block(b.in, ev.num_inputs()));
    auto& out = buffers_.emplace_back(2 * ev.num_outputs());
    auto& scratch = buffers_.emplace_back(2 * ev.num_slots());
    auto& block_scratch = buffers_.emplace_back();
    kernel_ = [&] { ev.eval_pass_simd_x2(in.data(), out.data(), scratch.data()); };
    lane_block_ = [&, lanes] {
      for (std::size_t first = 0; first < b_.in.size(); first += lanes) {
        ev.eval_lane_block(b_.in, first, std::min(lanes, b_.in.size() - first), b_.out,
                           block_scratch);
      }
    };
    return;
  }
  // Model B (fish): the streaming engine's kernel is k small-sorter passes
  // plus one k-way merger pass per lane block; its one-thread lane block is
  // the engine itself at threads = 1 (pack, passes, unpack).
  const auto* fish = dynamic_cast<const absort::sorters::FishSorter*>(e.sorter.get());
  if (fish == nullptr) throw std::logic_error(e.key.label + ": no kernel rung for this sorter");
  const auto& small = *evals_.emplace_back(
      std::make_unique<netlist::BitSlicedEvaluator>(fish->small_sorter_circuit()));
  const auto& merger = *evals_.emplace_back(
      std::make_unique<netlist::BitSlicedEvaluator>(fish->merger_circuit()));
  ops_after_ = small.stats().ops_after + merger.stats().ops_after;
  backend_ = std::string(netlist::to_string(small.backend())) + "+" +
             netlist::to_string(merger.backend());
  const std::size_t n = e.key.n;
  const std::size_t k = fish->k();
  const std::size_t g = n / k;
  auto& frame = buffers_.emplace_back(pack_block(b.in, n));
  auto& sorted = buffers_.emplace_back(2 * n);
  auto& out = buffers_.emplace_back(2 * n);
  auto& scr_small = buffers_.emplace_back(2 * small.num_slots());
  auto& scr_merge = buffers_.emplace_back(2 * merger.num_slots());
  kernel_ = [&, k, g] {
    for (std::size_t t = 0; t < k; ++t) {
      small.eval_pass_simd_x2(frame.data() + 2 * t * g, sorted.data() + 2 * t * g,
                              scr_small.data());
    }
    merger.eval_pass_simd_x2(sorted.data(), out.data(), scr_merge.data());
  };
  one_thread_ = e.sorter->make_batch_sorter({.threads = 1});
  lane_block_ = [this] { one_thread_->run(b_.in, b_.out); };
}

void KeyLadder::sample(double budget_s) {
  const auto collect = [&](const std::function<void()>& f, std::vector<double>& out,
                           std::size_t vecs) {
    f();  // warm-up
    const auto until = Clock::now() + std::chrono::duration<double>(budget_s / 3);
    for (std::size_t i = 0; i < kMinSamples || Clock::now() < until; ++i) {
      const std::int64_t t0 = now_ns();
      f();
      out.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(vecs));
    }
  };
  collect(kernel_, kernel_ns_, netlist::kBlockLanes);
  collect(lane_block_, lane_ns_, b_.in.size());
  check_outputs(e_.key, b_, b_.in.size());
  collect([this] { e_.batch->run(b_.in, b_.out); }, run_ns_, b_.in.size());
  check_outputs(e_.key, b_, b_.in.size());
}

void KeyLadder::report(Report& r) const {
  const std::string& label = e_.key.label;
  const double kernel_ns = median(kernel_ns_);
  const double lane_ns = median(lane_ns_);
  const double run_ns = median(run_ns_);
  const double transpose_ns = lane_ns - kernel_ns;
  r.metric("netlist.compile_ms." + label, e_.compile_ms, "ms");
  r.metric("netlist.ops_after." + label, static_cast<double>(ops_after_), "count");
  r.metric("netlist.kernel_ns_per_vec." + label, kernel_ns, "ns");
  r.metric("netlist.lane_block_ns_per_vec." + label, lane_ns, "ns");
  r.metric("netlist.transpose_ns_per_vec." + label, transpose_ns, "ns");
  r.metric("netlist.transpose_share." + label, transpose_ns / lane_ns, "ratio");
  r.metric("sorters.run_ns_per_vec." + label, run_ns, "ns");
  r.metric("sorters.thread_scaling." + label, lane_ns / run_ns, "ratio");
  r.info("backend." + label, backend_);
  r.info("engine_backend." + label, netlist::to_string(e_.batch->backend()));
}

double run_call_us(absort::sorters::BatchSorter& bs, Batch& b, std::size_t size) {
  size = std::clamp<std::size_t>(size, 1, b.in.size());
  const std::span<const BitVec> in(b.in.data(), size);
  const std::span<BitVec> out(b.out.data(), size);
  return median_call_ns([&] { bs.run(in, out); }, 0.1) / 1e3;
}

}  // namespace lb
