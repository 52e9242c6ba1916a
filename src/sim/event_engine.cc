#include "src/sim/event_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/dag/dag.h"
#include "src/metrics/streaming_stats.h"
#include "src/sim/job_arena.h"
#include "src/sim/sim_math.h"

namespace pjsched::sim {

namespace {

constexpr unsigned kNoProc = std::numeric_limits<unsigned>::max();
constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();

// Both execution paths share one arithmetic: a node entering the assigned
// set at virtual work time W with r units left is keyed by its completion
// coordinate C = W + r; while it stays assigned nothing is decremented, and
// its remaining work r = C - W is only materialized when it leaves (is
// preempted) or completes.  The reference path scans assigned nodes for
// min(C) and the fast path reads a heap top, but fl(C - W) / s is monotone
// in C, so the two minima are the same float — that is what makes the paths
// bit-identical rather than merely close.
//
// Engine-side per-slot state, parallel to the JobArena's slots.  The node
// arrays are *grow-only* across slot occupants: they resize up to the
// largest DAG the slot has hosted and are never shrunk or wholesale reset.
// That is safe because each array's invariant is per-occupancy:
//  * remaining/coord are written (absorb / assign) before they are read;
//  * proc_of and pos_in_available end every occupancy all-kNoProc/kNoPos
//    (complete_node restores them node by node), so stale values never
//    leak into the next occupant;
//  * stint and mark are *deliberately* never reset: stint is the lazy-
//    deletion token for heap entries and mark the epoch stamp of the
//    assignment diff, and both stay monotone per (slot, node) across
//    occupants — a heap entry or epoch mark left by a previous occupant
//    can therefore never collide with the current one.
struct SlotState {
  std::vector<dag::NodeId> available;  // ready or preempted nodes
  std::vector<double> remaining;  // work units left; valid while unassigned
  std::vector<double> coord;      // completion coordinate; valid while assigned
  std::vector<unsigned> proc_of;  // processor slot, kNoProc while unassigned
  std::vector<std::uint64_t> stint;  // bumped on every assign/leave; heap
                                     // entries carry the stint they were
                                     // pushed with and are stale otherwise
  std::vector<std::uint64_t> mark;   // epoch stamp for the assignment diff
  std::vector<std::uint32_t> pos_in_available;  // node -> index in available
  double processed = 0.0;  // exact path: cumulative work this occupancy
  double absorbed = 0.0;   // fast path: work claimed from the tracker
  double key = 0.0;        // fast path: static priority key
  std::uint32_t pos_in_ordered = kNoPos;
};

// Completion-heap entry; lazy deletion via the stint counter.
struct HeapEntry {
  double coord = 0.0;
  std::uint32_t slot = 0;
  dag::NodeId node = 0;
  std::uint64_t stint = 0;
};

// Min-heap on coord; the remaining fields only pin a total order so heap
// internals cannot depend on the standard library's tie handling.  (Slot
// rather than job id in the tie-break is observationally irrelevant: every
// same-coordinate batch is popped whole and re-sorted by processor slot
// before any completion is processed.)
struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.coord != b.coord) return a.coord > b.coord;
    if (a.slot != b.slot) return a.slot > b.slot;
    if (a.node != b.node) return a.node > b.node;
    return a.stint > b.stint;
  }
};

class Engine {
 public:
  Engine(core::JobSource& source, OrderPolicy& policy,
         const EventEngineOptions& options,
         metrics::StreamingFlowStats& stream)
      : source_(source), policy_(policy), opts_(options), ctx_(*this),
        stream_(stream), spans_(options.trace) {}

  core::EngineStats run();

 private:
  class Context final : public PolicyContext {
   public:
    explicit Context(Engine& e) : e_(e) {}
    core::Time now() const override { return e_.t_; }
    core::Time arrival(core::JobId j) const override {
      return e_.arena_[e_.arena_.slot_of(j)].arrival;
    }
    double weight(core::JobId j) const override {
      return e_.arena_[e_.arena_.slot_of(j)].weight;
    }
    double remaining_work(core::JobId j) const override {
      return e_.remaining_work(e_.arena_.slot_of(j));
    }

   private:
    Engine& e_;
  };

  double remaining_work(std::uint32_t s) const;
  void absorb_ready(std::uint32_t s);
  void apply_machine_events();
  void admit_arrivals();
  void idle_jump();
  void allocate(const std::vector<std::uint32_t>& active);
  void apply_assignment();
  double bound_dt(double dt);
  void advance(double dt);
  void complete_node(std::uint32_t s, dag::NodeId v);
  void insert_ordered(std::uint32_t s);
  void erase_ordered(std::uint32_t s);
  double next_completion_dt_fast();
  void run_exact();
  void run_fast();

  core::JobSource& source_;
  OrderPolicy& policy_;
  const EventEngineOptions& opts_;
  Context ctx_;
  metrics::StreamingFlowStats& stream_;

  unsigned m_ = 1;
  double s_ = 1.0;
  std::vector<core::MachineEvent> machine_events_;
  std::size_t next_machine_event_ = 0;

  JobArena arena_;
  std::vector<SlotState> slots_;  // parallel to arena_, grow-only

  core::Time t_ = 0.0;  // wall-clock simulated time
  double W_ = 0.0;      // virtual work clock, integral of s dt

  std::vector<std::pair<std::uint32_t, dag::NodeId>> assigned_;
  std::vector<std::pair<std::uint32_t, dag::NodeId>> assigned_new_;
  std::vector<std::size_t> taken_;  // allocator pass-1 per-rank node counts
  std::uint64_t epoch_ = 0;

  // Exact path: live slots in admission (= arrival base) order, plus the
  // engine-owned scratch the per-slice rebuild and policy call reuse.
  std::vector<std::uint32_t> live_;
  std::vector<core::JobId> active_jobs_;
  std::vector<std::uint32_t> active_slots_;

  // Fast path only.
  bool fast_ = false;
  std::vector<std::uint32_t> ordered_;  // active slots in policy order
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> heap_;
  std::vector<std::pair<std::uint32_t, dag::NodeId>> completed_;
  SpanRecorder spans_;

  std::uint64_t max_slices_ = 0;
  core::EngineStats stats_;
};

double Engine::remaining_work(std::uint32_t s) const {
  const SlotState& ss = slots_[s];
  if (!fast_)
    return static_cast<double>(arena_[s].graph.total_work()) - ss.processed;
  // Fast path (defensive: static-order policies must not call this, see the
  // OrderPolicy contract): unreached work plus what is left of every
  // available node, assigned nodes valued through their coordinate.
  double rem = static_cast<double>(arena_[s].graph.total_work()) - ss.absorbed;
  for (dag::NodeId v : ss.available)
    rem += (ss.proc_of[v] == kNoProc) ? ss.remaining[v] : ss.coord[v] - W_;
  return rem;
}

// Claims every currently-ready node of the packed frontier into the
// available list.
void Engine::absorb_ready(std::uint32_t s) {
  SlotState& ss = slots_[s];
  PackedDag& graph = arena_[s].graph;
  while (graph.ready_count() > 0) {
    const dag::NodeId v = graph.ready().front();
    graph.claim(v);
    const double w = static_cast<double>(graph.work_of(v));
    ss.remaining[v] = w;
    ss.absorbed += w;
    ss.pos_in_available[v] = static_cast<std::uint32_t>(ss.available.size());
    ss.available.push_back(v);
  }
}

// Applies machine events whose time has come.
void Engine::apply_machine_events() {
  while (next_machine_event_ < machine_events_.size() &&
         event_due(machine_events_[next_machine_event_].time, t_)) {
    m_ = machine_events_[next_machine_event_].processors;
    s_ = machine_events_[next_machine_event_].speed;
    ++next_machine_event_;
  }
}

// Pulls every job whose arrival has come out of the source and into the
// arena.  Per-slot node arrays grow to the occupant's DAG here (amortized:
// a recycled slot usually needs no growth); the defensive slice budget
// grows with each admission, matching what the materialized formula would
// have pre-computed.
void Engine::admit_arrivals() {
  while (!source_.done() && event_due(source_.next_arrival(), t_)) {
    const std::uint32_t s = arena_.acquire(source_.take());
    if (s >= slots_.size()) slots_.emplace_back();
    SlotState& ss = slots_[s];
    const std::size_t nodes = arena_[s].graph.node_count();
    if (ss.remaining.size() < nodes) {
      ss.remaining.resize(nodes);
      ss.coord.resize(nodes);
      ss.proc_of.resize(nodes, kNoProc);
      ss.stint.resize(nodes, 0);
      ss.mark.resize(nodes, 0);
      ss.pos_in_available.resize(nodes, kNoPos);
    }
    ss.processed = 0.0;
    ss.absorbed = 0.0;
    max_slices_ += 2 * (1 + static_cast<std::uint64_t>(nodes));
    absorb_ready(s);
    if (fast_) {
      ss.key = policy_.static_key(ctx_, arena_[s].id);
      insert_ordered(s);
    } else {
      live_.push_back(s);
    }
  }
}

// Idles until the next arrival (but not across a machine event: m may
// change, which alters the idle-time accounting).
void Engine::idle_jump() {
  if (source_.done())
    throw std::logic_error(
        "run_event_engine: no active jobs but jobs unfinished");
  core::Time t_next = source_.next_arrival();
  if (next_machine_event_ < machine_events_.size())
    t_next = std::min(t_next, machine_events_[next_machine_event_].time);
  t_next = std::max(t_next, t_);
  stats_.idle_processor_time += static_cast<double>(m_) * (t_next - t_);
  t_ = t_next;
}

// Greedy ordered allocation into assigned_new_.
// Pass 1: each job in priority order receives up to its policy cap.
// Pass 2 (work conservation): leftover processors go to still-hungry jobs in
// the same order, ignoring caps.
void Engine::allocate(const std::vector<std::uint32_t>& active) {
  assigned_new_.clear();
  taken_.clear();
  for (std::size_t rank = 0; rank < active.size(); ++rank) {
    const std::uint32_t s = active[rank];
    const SlotState& ss = slots_[s];
    const unsigned cap =
        policy_.processor_cap(ctx_, arena_[s].id, m_, active.size());
    std::size_t took = 0;
    for (dag::NodeId v : ss.available) {
      if (assigned_new_.size() >= m_ || took >= cap) break;
      assigned_new_.emplace_back(s, v);
      ++took;
    }
    taken_.push_back(took);
    if (assigned_new_.size() >= m_) break;
  }
  for (std::size_t rank = 0;
       rank < active.size() && assigned_new_.size() < m_; ++rank) {
    const std::uint32_t s = active[rank];
    const SlotState& ss = slots_[s];
    for (std::size_t vi = rank < taken_.size() ? taken_[rank] : 0;
         vi < ss.available.size() && assigned_new_.size() < m_; ++vi)
      assigned_new_.emplace_back(s, ss.available[vi]);
  }
}

// Diffs assigned_new_ against assigned_: entering nodes bind a completion
// coordinate C = W + remaining (and a heap entry on the fast path); leaving
// nodes materialize remaining = C - W.  A node that merely changes slot
// keeps its coordinate — the work axis does not care which processor runs
// it, so its heap entry stays valid across migrations.
void Engine::apply_assignment() {
  ++epoch_;
  for (std::size_t proc = 0; proc < assigned_new_.size(); ++proc) {
    const auto [s, v] = assigned_new_[proc];
    SlotState& ss = slots_[s];
    ss.mark[v] = epoch_;
    if (ss.proc_of[v] == kNoProc) {
      ss.coord[v] = W_ + ss.remaining[v];
      if (fast_) {
        ++ss.stint[v];
        heap_.push(HeapEntry{ss.coord[v], s, v, ss.stint[v]});
      }
    }
    ss.proc_of[v] = static_cast<unsigned>(proc);
  }
  for (const auto& [s, v] : assigned_) {
    SlotState& ss = slots_[s];
    if (ss.proc_of[v] == kNoProc) continue;  // completed last slice
    if (ss.mark[v] == epoch_) continue;      // still assigned
    ss.remaining[v] = ss.coord[v] - W_;
    ss.proc_of[v] = kNoProc;
    if (fast_) ++ss.stint[v];  // invalidate the heap entry
  }
  if (fast_ && opts_.trace != nullptr) {
    for (std::size_t proc = 0; proc < assigned_new_.size(); ++proc) {
      const auto [s, v] = assigned_new_[proc];
      spans_.reconcile(static_cast<unsigned>(proc), arena_[s].id, v, t_);
    }
    for (std::size_t proc = assigned_new_.size(); proc < spans_.slots();
         ++proc)
      spans_.close(static_cast<unsigned>(proc), t_);
  }
  assigned_.swap(assigned_new_);
}

// Clamps dt to the next arrival and the next machine event.
double Engine::bound_dt(double dt) {
  if (!source_.done()) dt = std::min(dt, source_.next_arrival() - t_);
  if (next_machine_event_ < machine_events_.size())
    dt = std::min(dt, machine_events_[next_machine_event_].time - t_);
  return std::max(dt, 0.0);
}

// Advances both clocks; the reference path also does its per-slice
// bookkeeping (clairvoyant processed-work accumulation and one trace
// interval per assigned node — the fast path records spans instead).
void Engine::advance(double dt) {
  const core::Time t_end = t_ + dt;
  const double dw = s_ * dt;
  if (!fast_) {
    unsigned proc = 0;
    for (const auto& [s, v] : assigned_) {
      slots_[s].processed += dw;
      if (opts_.trace != nullptr && dt > 0.0)
        opts_.trace->add_interval({arena_[s].id, v, proc, t_, t_end});
      ++proc;
    }
  }
  stats_.idle_processor_time +=
      static_cast<double>(m_ - assigned_.size()) * dt;
  W_ += dw;
  t_ = t_end;
}

// Completion bookkeeping at the current time t_.  When the job's last node
// finishes, the completion is recorded and the slot retired — the slot's
// packed arrays are released for the next occupant right here, which is
// what keeps a long streamed run's footprint at O(live jobs).
void Engine::complete_node(std::uint32_t s, dag::NodeId v) {
  SlotState& ss = slots_[s];
  const unsigned proc = ss.proc_of[v];
  ss.remaining[v] = 0.0;
  ss.proc_of[v] = kNoProc;
  if (fast_) {
    ++ss.stint[v];
    spans_.close(proc, t_);
  }
  // Swap-and-pop via the position index (O(1)): `available` is an unordered
  // working set — the allocation pass takes nodes from it in whatever order
  // it holds, and no invariant depends on that order (nodes of one job are
  // interchangeable up to their precedence constraints, which the slot's
  // PackedDag frontier enforces before a node ever enters the set).
  const std::uint32_t pos = ss.pos_in_available[v];
  const dag::NodeId back = ss.available.back();
  ss.available[pos] = back;
  ss.pos_in_available[back] = pos;
  ss.available.pop_back();
  ss.pos_in_available[v] = kNoPos;
  arena_[s].graph.complete(v);
  absorb_ready(s);
  if (arena_[s].graph.done()) {
    const JobArena::Slot& slot = arena_[s];
    stream_.record(slot.id, slot.arrival, slot.weight, t_);
    if (fast_)
      erase_ordered(s);
    else
      live_.erase(std::find(live_.begin(), live_.end(), s));
    arena_.retire(s);
  }
}

// Inserts s into the incrementally maintained policy order.  upper_bound on
// the static key over admissions in (arrival, index) order reproduces a
// stable sort by that key over the arrival base order — exactly what the
// reference path's policy.order() computes.
void Engine::insert_ordered(std::uint32_t s) {
  const double key = slots_[s].key;
  std::size_t lo = 0;
  std::size_t hi = ordered_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (slots_[ordered_[mid]].key <= key)
      lo = mid + 1;
    else
      hi = mid;
  }
  ordered_.insert(ordered_.begin() + static_cast<std::ptrdiff_t>(lo), s);
  for (std::size_t k = lo; k < ordered_.size(); ++k)
    slots_[ordered_[k]].pos_in_ordered = static_cast<std::uint32_t>(k);
}

void Engine::erase_ordered(std::uint32_t s) {
  const std::size_t p = slots_[s].pos_in_ordered;
  ordered_.erase(ordered_.begin() + static_cast<std::ptrdiff_t>(p));
  slots_[s].pos_in_ordered = kNoPos;
  for (std::size_t k = p; k < ordered_.size(); ++k)
    slots_[ordered_[k]].pos_in_ordered = static_cast<std::uint32_t>(k);
}

// Time to the earliest assigned-node completion, from the heap top.  Stale
// entries (stint mismatch) are popped here; every currently assigned node
// owns exactly one live entry, so the heap cannot run dry while anything is
// assigned.
double Engine::next_completion_dt_fast() {
  while (!heap_.empty()) {
    const HeapEntry& e = heap_.top();
    if (e.stint != slots_[e.slot].stint[e.node]) {
      heap_.pop();
      continue;
    }
    return completion_dt(e.coord, W_, s_);
  }
  return std::numeric_limits<double>::infinity();
}

// Reference loop: per slice, rebuild the active list in arrival base order,
// let the policy sort it, scan all assigned nodes for the next completion.
void Engine::run_exact() {
  std::uint64_t slices = 0;
  while (arena_.live() > 0 || !source_.done()) {
    if (++slices > max_slices_)
      throw std::logic_error(
          "run_event_engine: simulation failed to make progress");

    apply_machine_events();
    admit_arrivals();

    // Live jobs in admission order — the deterministic (arrival, index)
    // base order the policy's stable sort refines.
    active_jobs_.clear();
    for (std::uint32_t s : live_) active_jobs_.push_back(arena_[s].id);
    if (active_jobs_.empty()) {
      idle_jump();
      continue;
    }

    policy_.order(ctx_, active_jobs_);
    ++stats_.decision_points;
    active_slots_.clear();
    for (core::JobId j : active_jobs_)
      active_slots_.push_back(arena_.slot_of(j));
    allocate(active_slots_);
    if (assigned_new_.empty())
      throw std::logic_error(
          "run_event_engine: active jobs but nothing to run");
    apply_assignment();

    double dt = std::numeric_limits<double>::infinity();
    for (const auto& [s, v] : assigned_)
      dt = std::min(dt, completion_dt(slots_[s].coord[v], W_, s_));
    advance(bound_dt(dt));

    // Process completions (coordinate within tolerance of the work clock),
    // in processor-slot order.  A slot retired by an earlier pair in this
    // scan cannot recur in a later one: retirement means every node
    // completed, and each (slot, node) pair appears at most once.
    for (const auto& [s, v] : assigned_) {
      SlotState& ss = slots_[s];
      if (ss.proc_of[v] == kNoProc) continue;  // completed earlier this scan
      if (coord_due(ss.coord[v], W_)) complete_node(s, v);
    }
  }
}

// Fast loop: the active list is maintained incrementally in policy order and
// the next completion comes off the heap — no per-slice rebuild, sort, or
// assigned-set scan.  The steady state allocates nothing: every container
// here is engine-owned and reuses its capacity across slices
// (tests/scaling_test.cc counts allocations per job to pin this).
void Engine::run_fast() {
  std::uint64_t slices = 0;
  while (arena_.live() > 0 || !source_.done()) {
    if (++slices > max_slices_)
      throw std::logic_error(
          "run_event_engine: simulation failed to make progress");

    apply_machine_events();
    admit_arrivals();
    if (ordered_.empty()) {
      idle_jump();
      continue;
    }

    ++stats_.decision_points;
    ++stats_.fast_decisions;
    allocate(ordered_);
    if (assigned_new_.empty())
      throw std::logic_error(
          "run_event_engine: active jobs but nothing to run");
    apply_assignment();

    advance(bound_dt(next_completion_dt_fast()));

    // Pop every completing node (they occupy the heap top, in coordinate
    // order), then process in processor-slot order — the order the
    // reference path's assigned-set scan uses, which downstream state
    // (available-vector layout, ready absorption) depends on.
    completed_.clear();
    while (!heap_.empty()) {
      const HeapEntry e = heap_.top();
      SlotState& ss = slots_[e.slot];
      if (e.stint != ss.stint[e.node]) {
        heap_.pop();
        continue;
      }
      if (!coord_due(ss.coord[e.node], W_)) break;
      heap_.pop();
      completed_.emplace_back(e.slot, e.node);
    }
    if (completed_.size() > 1)
      std::sort(completed_.begin(), completed_.end(),
                [this](const std::pair<std::uint32_t, dag::NodeId>& a,
                       const std::pair<std::uint32_t, dag::NodeId>& b) {
                  return slots_[a.first].proc_of[a.second] <
                         slots_[b.first].proc_of[b.second];
                });
    for (const auto& [s, v] : completed_) complete_node(s, v);
  }
}

core::EngineStats Engine::run() {
  m_ = opts_.machine.processors;
  s_ = opts_.machine.speed;
  if (m_ == 0) throw std::invalid_argument("run_event_engine: zero processors");
  if (!(s_ > 0.0) || !std::isfinite(s_))
    throw std::invalid_argument(
        "run_event_engine: speed must be finite and > 0");

  // Degradation timeline: machine events are decision points like arrivals
  // and completions; (m, s) are piecewise constant between them.
  machine_events_ = opts_.machine.degradation;
  for (const core::MachineEvent& e : machine_events_) {
    if (e.processors == 0)
      throw std::invalid_argument(
          "run_event_engine: machine event with zero processors");
    if (!(e.speed > 0.0) || !std::isfinite(e.speed))
      throw std::invalid_argument(
          "run_event_engine: machine event speed must be finite and > 0");
    if (!(e.time >= 0.0))  // NaN too
      throw std::invalid_argument(
          "run_event_engine: machine event before time 0");
  }
  std::stable_sort(
      machine_events_.begin(), machine_events_.end(),
      [](const core::MachineEvent& a, const core::MachineEvent& b) {
        return a.time < b.time;
      });

  // Defensive cap: every slice either completes a node, admits an arrival,
  // applies a machine event, or some combination, so slices <= total nodes
  // + jobs + machine events + 1.  Jobs stream in, so the budget starts with
  // the job-independent part and admit_arrivals() grows it per admission —
  // the total matches what the materialized formula would pre-compute.
  max_slices_ =
      (static_cast<std::uint64_t>(machine_events_.size()) + 1) * 2 + 16;

  fast_ = !opts_.exact && policy_.has_static_order();

  if (fast_)
    run_fast();
  else
    run_exact();

  if (opts_.trace != nullptr) opts_.trace->coalesce();
  stats_.arena_slots = arena_.size();
  stats_.peak_live_jobs = arena_.peak_live();
  return stats_;
}

}  // namespace

core::StreamRunResult run_event_engine(core::JobSource& source,
                                       OrderPolicy& policy,
                                       const EventEngineOptions& options,
                                       metrics::StreamingFlowStats* stats) {
  metrics::StreamingFlowStats local;
  metrics::StreamingFlowStats& sink = stats != nullptr ? *stats : local;
  Engine engine(source, policy, options, sink);
  const core::EngineStats counters = engine.run();
  return sink.result(policy.name(), counters);
}

}  // namespace pjsched::sim
