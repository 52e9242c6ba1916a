// Execution traces: an optional, replayable record of which processor ran
// which node of which job over which time interval, plus work-stealing
// events.  Traces feed the audit layer (src/metrics/audit.h), which verifies
// that a simulated schedule obeyed the machine model and the jobs'
// precedence constraints.  Recording is off by default — traces for large
// experiments are big — and turned on by tests.
//
// Two recording modes:
//
//   * In-core (default): intervals accumulate in a vector; callers run
//     coalesce() at the end and read intervals().  O(all intervals) memory.
//   * Spill (construct with a TraceSink*): the trace keeps one pending
//     span per processor and hands every *maximal* merged interval to the
//     sink as soon as the next interval on that processor fails to extend
//     it.  Because both engines emit each processor's intervals in
//     nondecreasing start order, this single-open-window merge produces
//     exactly the intervals Trace::coalesce would — coalesce-equivalent by
//     construction — while holding O(processors) state, which is what makes
//     --trace viable at 10^6 jobs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/dag/dag.h"

namespace pjsched::sim {

/// A maximal interval during which `proc` continuously ran `node` of `job`.
/// The amount of work performed equals (end - start) * speed.
struct WorkInterval {
  core::JobId job = 0;
  dag::NodeId node = 0;
  unsigned proc = 0;
  core::Time start = 0.0;
  core::Time end = 0.0;
};

/// One steal attempt in the step engine.
struct StealEvent {
  unsigned thief = 0;
  unsigned victim = 0;
  bool success = false;
  std::uint64_t step = 0;  ///< step index at which the attempt happened
};

/// One admission of a job from the global FIFO queue.
struct AdmissionEvent {
  unsigned worker = 0;
  core::JobId job = 0;
  std::uint64_t step = 0;
};

/// Receives trace records from a spill-mode Trace as they are finalized.
/// on_interval sees maximal coalesced intervals grouped by processor in
/// nondecreasing start order per processor (cross-processor order is
/// emission order, not sorted — sort downstream if a global order matters).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_interval(const WorkInterval& iv) = 0;
  virtual void on_steal(const StealEvent& ev) { (void)ev; }
  virtual void on_admission(const AdmissionEvent& ev) { (void)ev; }
  /// Called once from Trace::coalesce after the pending windows drain.
  virtual void flush() {}
};

class Trace {
 public:
  Trace() = default;

  /// Spill mode: intervals stream to `sink` (which must outlive the trace)
  /// instead of accumulating; intervals() stays empty.  Steal/admission
  /// events forward to the sink immediately when recorded.
  explicit Trace(TraceSink* sink) : sink_(sink) {}

  /// True when records stream to a sink instead of accumulating in-core.
  bool spilling() const { return sink_ != nullptr; }

  void add_interval(const WorkInterval& iv) {
    if (sink_ != nullptr) {
      spill_interval(iv);
      return;
    }
    intervals_.push_back(iv);
  }
  void add_steal(const StealEvent& ev) {
    if (sink_ != nullptr) {
      sink_->on_steal(ev);
      return;
    }
    steals_.push_back(ev);
  }
  void add_admission(const AdmissionEvent& ev) {
    if (sink_ != nullptr) {
      sink_->on_admission(ev);
      return;
    }
    admissions_.push_back(ev);
  }

  /// Empty in spill mode — the records went to the sink.
  const std::vector<WorkInterval>& intervals() const { return intervals_; }
  const std::vector<StealEvent>& steals() const { return steals_; }
  const std::vector<AdmissionEvent>& admissions() const { return admissions_; }

  /// Merges adjacent intervals with identical (job, node, proc) where one
  /// ends exactly when the next begins; engines emit per-decision-slice
  /// intervals and call this once at the end.  Idempotent, and invariant
  /// under refinement: any splitting of the maximal runs into contiguous
  /// pieces coalesces to the same canonical vector, which is what lets the
  /// event engine's fast path emit pre-merged spans while the reference
  /// path emits one interval per slice.
  ///
  /// In spill mode this instead drains the per-processor pending windows to
  /// the sink (in processor order) and calls sink->flush(); the merge
  /// already happened incrementally.
  void coalesce();

 private:
  void spill_interval(const WorkInterval& iv);

  /// Spill mode's per-processor merge window: at most one open span each.
  struct PendingSpan {
    WorkInterval iv;
    bool open = false;
  };

  TraceSink* sink_ = nullptr;
  std::vector<WorkInterval> intervals_;
  std::vector<StealEvent> steals_;
  std::vector<AdmissionEvent> admissions_;
  std::vector<PendingSpan> pending_;  // indexed by proc; spill mode only
};

/// TraceSink writing a plain-text trace file: one record per line,
/// `i <job> <node> <proc> <start> <end>` for intervals,
/// `s <thief> <victim> <success> <step>` for steal attempts and
/// `a <worker> <job> <proc-step>` for admissions, doubles in %.17g so a
/// reader recovers them bit-exactly.  Buffered through stdio; the
/// destructor flushes and closes.
class FileTraceSink final : public TraceSink {
 public:
  /// Opens `path` for writing (truncates).  Throws std::runtime_error if
  /// the file cannot be opened.
  explicit FileTraceSink(const std::string& path);
  ~FileTraceSink() override;

  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  void on_interval(const WorkInterval& iv) override;
  void on_steal(const StealEvent& ev) override;
  void on_admission(const AdmissionEvent& ev) override;
  void flush() override;

  std::uint64_t intervals_written() const { return intervals_written_; }
  std::uint64_t steals_written() const { return steals_written_; }
  std::uint64_t admissions_written() const { return admissions_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t intervals_written_ = 0;
  std::uint64_t steals_written_ = 0;
  std::uint64_t admissions_written_ = 0;
};

/// Lazy span recorder for the event engine's fast path: instead of one
/// add_interval per decision slice per assigned node, the engine keeps one
/// *open span* per processor slot and only emits an interval when the slot's
/// occupant changes (preemption, migration, completion) or the run ends.  A
/// node continuously assigned to one processor across thousands of slices
/// produces exactly one interval — the same interval Trace::coalesce would
/// have merged the per-slice pieces into.  Zero-length spans (opened and
/// closed at the same instant by a zero-dt slice) are dropped, matching the
/// reference path's `dt > 0` emission guard.
class SpanRecorder {
 public:
  /// Records into *trace; `trace` may be null (every call is then a no-op).
  explicit SpanRecorder(Trace* trace) : trace_(trace) {}

  /// Reconciles processor slot `proc` with the node now assigned there at
  /// time `t`: keeps the span open if the occupant is unchanged, otherwise
  /// closes the old span at `t` and opens a new one.
  void reconcile(unsigned proc, core::JobId job, dag::NodeId node,
                 core::Time t);

  /// Closes slot `proc`'s open span (if any) at time `t`.
  void close(unsigned proc, core::Time t);

  /// Number of slots ever opened — the upper bound callers sweep when the
  /// assignment shrinks.
  std::size_t slots() const { return spans_.size(); }

 private:
  struct OpenSpan {
    core::JobId job = 0;
    dag::NodeId node = 0;
    core::Time start = 0.0;
    bool open = false;
  };

  Trace* trace_;
  std::vector<OpenSpan> spans_;  // indexed by processor slot
};

}  // namespace pjsched::sim
