#include "src/metrics/gantt.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pjsched::metrics {

namespace {

core::Time last_end(const sim::Trace& trace) {
  core::Time end = 0.0;
  for (const sim::WorkInterval& iv : trace.intervals())
    end = std::max(end, iv.end);
  return end;
}

}  // namespace

std::string ascii_gantt(const sim::Trace& trace, unsigned processors,
                        const GanttOptions& options) {
  if (processors == 0)
    throw std::invalid_argument("ascii_gantt: no processors");
  if (options.width == 0)
    throw std::invalid_argument("ascii_gantt: zero width");
  const core::Time t0 = options.t_begin;
  const core::Time t1 = options.t_end >= 0.0 ? options.t_end : last_end(trace);
  if (!(t1 > t0)) throw std::invalid_argument("ascii_gantt: empty time window");
  const double scale = static_cast<double>(options.width) / (t1 - t0);

  std::vector<std::string> rows(processors,
                                std::string(options.width, '.'));
  for (const sim::WorkInterval& iv : trace.intervals()) {
    if (iv.proc >= processors) continue;
    const double lo = (std::max(iv.start, t0) - t0) * scale;
    const double hi = (std::min(iv.end, t1) - t0) * scale;
    if (hi <= lo) continue;
    auto a = static_cast<std::size_t>(lo);
    auto b = static_cast<std::size_t>(std::ceil(hi));
    a = std::min(a, options.width - 1);
    b = std::clamp<std::size_t>(b, a + 1, options.width);
    const char glyph = static_cast<char>('A' + iv.job % 26);
    for (std::size_t c = a; c < b; ++c) rows[iv.proc][c] = glyph;
  }

  std::ostringstream oss;
  oss << "time " << t0 << " .. " << t1 << " (" << options.width
      << " cols, '.' = idle, letter = job id mod 26)\n";
  for (unsigned p = 0; p < processors; ++p)
    oss << "P" << p << (p < 10 ? "  |" : " |") << rows[p] << "|\n";
  return oss.str();
}

void write_chrome_trace(std::ostream& os, const sim::Trace& trace) {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };
  for (const sim::WorkInterval& iv : trace.intervals()) {
    comma();
    os << "{\"name\":\"job" << iv.job << "/node" << iv.node
       << "\",\"cat\":\"work\",\"ph\":\"X\",\"ts\":" << iv.start
       << ",\"dur\":" << (iv.end - iv.start) << ",\"pid\":0,\"tid\":" << iv.proc
       << ",\"args\":{\"job\":" << iv.job << ",\"node\":" << iv.node << "}}";
  }
  for (const sim::StealEvent& ev : trace.steals()) {
    comma();
    os << "{\"name\":\"steal " << (ev.success ? "hit" : "miss")
       << "\",\"cat\":\"steal\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.step
       << ",\"pid\":0,\"tid\":" << ev.thief << ",\"args\":{\"victim\":"
       << ev.victim << "}}";
  }
  for (const sim::AdmissionEvent& ev : trace.admissions()) {
    comma();
    os << "{\"name\":\"admit job" << ev.job
       << "\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.step
       << ",\"pid\":0,\"tid\":" << ev.worker << ",\"args\":{\"job\":" << ev.job
       << "}}";
  }
  os << "]}";
}

std::string chrome_trace_json(const sim::Trace& trace) {
  std::ostringstream oss;
  write_chrome_trace(oss, trace);
  return oss.str();
}

std::vector<double> utilization_timeline(const sim::Trace& trace,
                                         std::size_t buckets,
                                         core::Time horizon) {
  if (buckets == 0)
    throw std::invalid_argument("utilization_timeline: zero buckets");
  const core::Time t1 = horizon > 0.0 ? horizon : last_end(trace);
  std::vector<double> busy(buckets, 0.0);
  if (!(t1 > 0.0)) return busy;
  const double bucket_len = t1 / static_cast<double>(buckets);
  for (const sim::WorkInterval& iv : trace.intervals()) {
    const core::Time lo = std::max(iv.start, 0.0);
    const core::Time hi = std::min(iv.end, t1);
    if (hi <= lo) continue;
    auto b0 = static_cast<std::size_t>(lo / bucket_len);
    auto b1 = static_cast<std::size_t>((hi - 1e-12) / bucket_len);
    b0 = std::min(b0, buckets - 1);
    b1 = std::min(b1, buckets - 1);
    for (std::size_t b = b0; b <= b1; ++b) {
      const core::Time seg_lo =
          std::max(lo, bucket_len * static_cast<double>(b));
      const core::Time seg_hi =
          std::min(hi, bucket_len * static_cast<double>(b + 1));
      if (seg_hi > seg_lo) busy[b] += (seg_hi - seg_lo) / bucket_len;
    }
  }
  return busy;
}

}  // namespace pjsched::metrics
