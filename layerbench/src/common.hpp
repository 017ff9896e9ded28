#pragma once
// Shared helpers of the layer-ladder benchmark: workload keys, timing, order
// statistics, the answer checks, spans, and the JSON-lines output that
// run.py reads.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "absort/util/bitvec.hpp"

namespace lb {

using Clock = std::chrono::steady_clock;
using absort::BitVec;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}
inline std::int64_t now_ns() { return to_ns(Clock::now()); }

/// One (family, n) pair a workload sends, labelled "<family>-<n>" (the
/// family may itself contain dashes, as in "mux-merger-256").  Permute keys
/// name a permuter fabric instead of a sorter.
struct Key {
  std::string label;
  std::string family;
  std::size_t n = 0;
  bool permute = false;
};

inline Key parse_key(std::string_view label, bool permute = false) {
  const auto dash = label.rfind('-');
  Key k;
  k.label = std::string(label);
  k.family = std::string(label.substr(0, dash));
  k.n = std::strtoull(std::string(label.substr(dash + 1)).c_str(), nullptr, 10);
  k.permute = permute;
  return k;
}

/// The six keys the per-key ladder metrics are reported for.
inline const std::vector<std::string>& ladder_keys() {
  static const std::vector<std::string> keys = {"batcher-64",     "prefix-1024",
                                                "fish-256",       "prefix-64",
                                                "mux-merger-256", "mux-merger-1024"};
  return keys;
}

/// Nearest-rank order statistic (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = std::min(v.size() - 1, rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Latency distribution in constant memory (so a run's peak RSS does not
/// grow with its request count): values below 128 ns are exact, above that
/// each power of two splits into 128 linear buckets (under 0.8% wide), and
/// quantiles interpolate linearly inside the bucket.
class LatencyHistogram {
 public:
  void record_ns(std::int64_t ns) {
    ++counts_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns)))];
    ++total_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }

  /// The q-quantile in microseconds; 0 when empty.
  [[nodiscard]] double quantile_us(double q) const {
    if (total_ == 0) return 0;
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
    double before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0 && before + c >= rank) {
        const double within = (rank - before - 0.5) / c;
        return (static_cast<double>(lower(i)) + within * static_cast<double>(width(i))) / 1e3;
      }
      before += c;
    }
    return 0;
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return v;
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    return ((e - kSubBits + 1) << kSubBits) + ((v >> (e - kSubBits)) & (kSub - 1));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const unsigned e = static_cast<unsigned>(i >> kSubBits) + kSubBits - 1;
    return (kSub + (i & (kSub - 1))) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << ((i >> kSubBits) - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(64u << kSubBits);
  std::uint64_t total_ = 0;
};

/// A wrong answer ends the benchmark: exit code 3, no result line.
[[noreturn]] inline void wrong_answer(const std::string& what) {
  std::fprintf(stderr, "layerbench: WRONG ANSWER: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

/// The complete 0-1 oracle: an output is correct iff it has the input's
/// length, is ascending, and keeps the input's population count.
inline bool sorted_with_ones(const BitVec& out, std::size_t n, std::size_t ones) {
  if (out.size() != n) return false;
  const auto& d = out.data();
  const std::size_t zeros = n - ones;
  for (std::size_t i = 0; i < zeros; ++i) {
    if (d[i] != 0) return false;
  }
  for (std::size_t i = zeros; i < n; ++i) {
    if (d[i] != 1) return false;
  }
  return true;
}

/// output_source must be the inverse of dest: output_source[dest[i]] == i.
template <typename D, typename S>
bool is_inverse(const std::vector<D>& dest, const std::vector<S>& output_source) {
  if (dest.size() != output_source.size()) return false;
  for (std::size_t i = 0; i < dest.size(); ++i) {
    if (dest[i] >= output_source.size() || output_source[dest[i]] != i) return false;
  }
  return true;
}

/// Peak resident set of this process, in MiB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used because Linux keeps it across execve,
/// so a child of a larger parent would report the parent's peak.
inline double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One traced call into a layer: which layer, the layer that called it, the
/// request it served, and when.  Spans are kept in memory (one log per
/// thread, so recording takes no lock) and written out at the end.
struct Span {
  const char* name = "";
  const char* parent = "";
  std::uint64_t request = 0;
  std::uint32_t key = 0;  ///< index into the workload's key table
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};
using SpanLog = std::vector<Span>;

/// Collects named metrics and info fields and prints them as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& name, const std::string& value) {
    info_.emplace_back(name, "\"" + value + "\"");
  }
  void info(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info_.emplace_back(name, buf);
  }

  /// {"kind": kind, "metrics": {name: [value, unit]}, "info": {...}}
  void print(const char* kind) const {
    std::string s = std::string("{\"kind\":\"") + kind + "\",\"metrics\":{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      s += (i ? ",\"" : "\"") + m.name + "\":[" + buf + ",\"" + m.unit + "\"]";
    }
    s += "},\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      s += (i ? ",\"" : "\"") + info_[i].first + "\":" + info_[i].second;
    }
    s += "}}\n";
    std::fputs(s.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Tells run.py that set-up has finished (it stamps the set-up time when it
/// reads this line).
inline void announce_ready() {
  std::fputs("{\"kind\":\"ready\"}\n", stdout);
  std::fflush(stdout);
}

}  // namespace lb
