// The benchmark's own arithmetic: order statistics, shares, and the span
// tracer whose self times give the per-layer breakdown.  Kept free of the
// program's headers so arith_test.cc can pin it in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] by linear interpolation between the two nearest
/// order statistics (position q * (n - 1)), the definition the program's
/// own metrics::Summary uses.  Throws on an empty sample.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: bad q");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// part / whole, 0 when nothing was attempted.
inline double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Relative change of `measured` against `base` (0.1 = 10% larger).
inline double relative_change(double measured, double base) {
  return base != 0.0 ? measured / base - 1.0 : 0.0;
}

/// The layers the benchmark times from outside, named after the repo's
/// modules.
enum class Layer : std::uint8_t {
  kWorkload,
  kSim,
  kCore,
  kRuntime,
  kService,
};
inline constexpr std::size_t kLayerCount = 5;

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kRuntime: return "runtime";
    case Layer::kService: return "service";
  }
  return "?";
}

/// Spans around every call the benchmark makes into a layer.  Spans nest
/// on one thread (the benchmark drives each workload from a single
/// thread), so a span's children never overlap and its self time — its
/// duration minus the part of it that child spans cover — is its duration
/// minus the sum of its direct children's durations.  Self time is folded
/// into per-layer totals as each span closes; the spans themselves are
/// retained in memory up to a cap and written out at exit.
///
/// Timestamps are passed in (nanoseconds on any monotonic clock) so the
/// arithmetic can be tested without a clock; Scope stamps them for real.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = a root span
    std::uint32_t job = 0;     ///< job the span served; 0 = none
    Layer layer = Layer::kWorkload;
    const char* call = "";     ///< the wrapped call (a string literal)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(std::size_t retain_cap = std::size_t{1} << 20)
      : retain_cap_(retain_cap) {}

  /// Opens a span at `now_ns`; `allocs` is a running allocation count
  /// read at the same moment (0 when not counting).
  void open(Layer layer, const char* call, std::uint32_t job,
            std::int64_t now_ns, std::uint64_t allocs = 0) {
    Open o;
    o.allocs_at_open = allocs;
    o.span.id = ++next_id_;
    o.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
    o.span.job = job;
    o.span.layer = layer;
    o.span.call = call;
    o.span.start_ns = now_ns;
    stack_.push_back(o);
  }

  void close(std::int64_t now_ns, std::uint64_t allocs = 0) {
    if (stack_.empty()) throw std::logic_error("Tracer::close: no open span");
    Open o = stack_.back();
    stack_.pop_back();
    o.span.end_ns = now_ns;
    const std::int64_t duration = o.span.end_ns - o.span.start_ns;
    const std::uint64_t allocated = allocs - o.allocs_at_open;
    const auto layer = static_cast<std::size_t>(o.span.layer);
    self_ns_[layer] += duration - o.children_ns;
    self_allocs_[layer] += allocated - o.children_allocs;
    call_total(o.span.call) += duration - o.children_ns;
    if (!stack_.empty()) {
      stack_.back().children_ns += duration;
      stack_.back().children_allocs += allocated;
    }
    if (retained_.size() < retain_cap_)
      retained_.push_back(o.span);
    else
      ++dropped_;
  }

  /// Seconds of `layer`'s self time so far.
  double self_seconds(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  /// Seconds of self time in spans of the call named `call`.
  double call_self_seconds(const char* call) const {
    for (const auto& [name, ns] : calls_)
      if (std::strcmp(name, call) == 0) return static_cast<double>(ns) * 1e-9;
    return 0.0;
  }
  /// Allocations made in `layer`'s spans outside their child spans.
  std::uint64_t self_allocations(Layer layer) const {
    return self_allocs_[static_cast<std::size_t>(layer)];
  }

  const std::vector<Span>& retained() const { return retained_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the retained spans as tab-separated lines
  /// `id parent job layer call start_ns end_ns`, after a header line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "# id\tparent\tjob\tlayer\tcall\tstart_ns\tend_ns"
                 "\tdropped=%llu\n",
                 static_cast<unsigned long long>(dropped_));
    for (const Span& s : retained_)
      std::fprintf(f, "%u\t%u\t%u\t%s\t%s\t%lld\t%lld\n", s.id, s.parent,
                   s.job, layer_name(s.layer), s.call,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

 private:
  /// Running self-time total of one call label; labels are few, so a
  /// linear scan (pointer compare first) beats a map.
  std::int64_t& call_total(const char* call) {
    for (auto& [name, ns] : calls_)
      if (name == call || std::strcmp(name, call) == 0) return ns;
    calls_.emplace_back(call, 0);
    return calls_.back().second;
  }

  struct Open {
    Span span;
    std::int64_t children_ns = 0;
    std::uint64_t allocs_at_open = 0;
    std::uint64_t children_allocs = 0;
  };

  std::size_t retain_cap_;
  std::uint32_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> retained_;
  std::uint64_t dropped_ = 0;
  std::int64_t self_ns_[kLayerCount] = {};
  std::uint64_t self_allocs_[kLayerCount] = {};
  std::vector<std::pair<const char*, std::int64_t>> calls_;
};

}  // namespace perfbench
