#include "src/sim/step_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dag/dag.h"
#include "src/metrics/streaming_stats.h"
#include "src/sim/job_arena.h"
#include "src/sim/sim_math.h"

namespace pjsched::sim {

namespace {

// Deque/queue entries reference arena slots, not job ids: a slot is only
// retired when its job's last node completes, and every entry is a
// claimed-but-unexecuted node, so no entry can outlive its slot.
struct NodeRef {
  std::uint32_t slot;
  dag::NodeId node;
};

struct Worker {
  std::deque<NodeRef> deque;
  NodeRef current{0, 0};
  bool has_current = false;
  dag::Work remaining = 0;         // work units left on current
  unsigned fail_count = 0;         // consecutive failed steal attempts
  std::uint64_t work_start = 0;    // step at which current's execution began
};

// The global admission queue.  FIFO admission is a plain deque; weighted
// admission keeps a binary max-heap on (weight, enqueue order) so each
// admission pops the heaviest job — earliest-queued on ties — in O(log q)
// instead of rescanning the whole queue.  Jobs only leave via admission, so
// no lazy deletion is needed and the heap pop picks exactly the job the old
// linear scan picked (strict `>` comparison kept the earliest maximum).
// Weights are captured at push time: entries hold slots, and the weight is
// part of the slot's occupancy.
class GlobalQueue {
 public:
  explicit GlobalQueue(bool by_weight) : by_weight_(by_weight) {}

  bool empty() const { return by_weight_ ? heap_.empty() : fifo_.empty(); }

  void push(std::uint32_t slot, double weight) {
    if (!by_weight_) {
      fifo_.push_back(slot);
      return;
    }
    heap_.push_back({weight, seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end());
  }

  std::uint32_t pop() {
    if (!by_weight_) {
      const std::uint32_t s = fifo_.front();
      fifo_.pop_front();
      return s;
    }
    std::pop_heap(heap_.begin(), heap_.end());
    const std::uint32_t s = heap_.back().slot;
    heap_.pop_back();
    return s;
  }

 private:
  struct Entry {
    double weight;
    std::uint64_t seq;
    std::uint32_t slot;
    // Max-heap priority: heavier first, then earlier-queued.
    bool operator<(const Entry& o) const {
      if (weight != o.weight) return weight < o.weight;
      return seq > o.seq;
    }
  };

  const bool by_weight_;
  std::deque<std::uint32_t> fifo_;
  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
};

core::EngineStats run_impl(core::JobSource& source,
                           const StepEngineOptions& options,
                           std::vector<core::Time>* completion_out,
                           metrics::StreamingFlowStats& stream) {
  const unsigned m = options.machine.processors;
  const double s = options.machine.speed;
  if (m == 0) throw std::invalid_argument("run_step_engine: zero processors");
  if (!(s > 0.0)) throw std::invalid_argument("run_step_engine: speed must be > 0");
  const unsigned k = options.steal_k;

  // Degradation events (processor count changes only; the step length is
  // tied to the configured speed, so speed changes are rejected).
  std::vector<core::MachineEvent> machine_events = options.machine.degradation;
  for (const core::MachineEvent& e : machine_events) {
    if (e.processors == 0)
      throw std::invalid_argument("run_step_engine: machine event with zero workers");
    if (e.time < 0.0)
      throw std::invalid_argument("run_step_engine: machine event before time 0");
    if (e.speed != s)
      throw std::invalid_argument(
          "run_step_engine: speed changes are not supported (step length is 1/s)");
  }
  std::stable_sort(machine_events.begin(), machine_events.end(),
                   [](const core::MachineEvent& a, const core::MachineEvent& b) {
                     return a.time < b.time;
                   });
  // Total worker slots ever needed (dead workers keep their deques).
  unsigned total_workers = m;
  for (const core::MachineEvent& e : machine_events)
    total_workers = std::max(total_workers, e.processors);

  // Jobs enter the global queue at the first step boundary at or after
  // their arrival time (step T spans real time [T/s, (T+1)/s)).
  const auto arrival_to_step = [s](core::Time arrival) {
    return time_to_step(arrival, s);
  };

  core::EngineStats stats;
  JobArena arena;
  std::vector<std::uint64_t> arrival_step;  // per slot, set at acquisition

  Rng rng(options.seed);
  std::vector<Worker> workers(total_workers);
  // Worker w is live iff w < live_count: lowest-index workers survive a
  // degradation event (deterministic fail-stop).
  unsigned live_count = m;
  std::vector<std::uint64_t> machine_event_step(machine_events.size());
  for (std::size_t e = 0; e < machine_events.size(); ++e)
    machine_event_step[e] = time_to_step(machine_events[e].time, s);
  std::size_t next_machine_event = 0;
  GlobalQueue global_queue(options.admit_by_weight);

  // Defensive step budget.  The automatic budget is the materialized
  // formula — last arrival + total work per failure interval + per-job
  // admission slack — but jobs stream in, so its components grow with each
  // acquisition (and with idle fast-forward targets); once every job has
  // been acquired it equals what the materialized computation would have
  // produced up front.  Each failure event can discard one in-flight
  // node's progress, so budget one extra total_work per event.
  const bool auto_budget = options.max_steps == 0;
  std::uint64_t budget_last_arrival = 0;
  std::uint64_t budget_total_work = 0;
  std::uint64_t budget_jobs = 0;
  std::uint64_t max_steps = options.max_steps;
  const auto recompute_budget = [&] {
    max_steps = budget_last_arrival +
                budget_total_work * (machine_events.size() + 1) +
                (budget_jobs + 1) * (k + total_workers + 1) + 1024;
    if (!machine_event_step.empty()) max_steps += machine_event_step.back();
    max_steps *= 4;
  };
  if (auto_budget) recompute_budget();

  std::vector<unsigned> perm(total_workers);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<dag::NodeId> enabled;

  // Claims all of a slot's currently-ready nodes: the first becomes the
  // worker's current node, the rest go to the bottom of its deque.
  const auto take_ready = [&](Worker& w, std::uint32_t slot,
                              std::uint64_t step) {
    PackedDag& graph = arena[slot].graph;
    bool first = true;
    while (graph.ready_count() > 0) {
      const dag::NodeId v = graph.ready().front();
      graph.claim(v);
      if (first) {
        w.current = {slot, v};
        w.has_current = true;
        w.remaining = graph.work_of(v);
        w.work_start = step;
        first = false;
      } else {
        w.deque.push_back({slot, v});
      }
    }
  };

  std::uint64_t step = 0;
  for (; arena.live() > 0 || !source.done(); ++step) {
    if (step >= max_steps)
      throw std::logic_error("run_step_engine: step budget exhausted");

    // Apply machine events whose step has come.  Workers at or above the
    // new count fail stop: the in-flight node loses its progress and
    // returns to the front of the failed worker's deque, where it stays
    // stealable; workers below the count (re)start fresh.
    while (next_machine_event < machine_events.size() &&
           machine_event_step[next_machine_event] <= step) {
      const unsigned new_count = machine_events[next_machine_event].processors;
      for (unsigned wi = new_count; wi < live_count; ++wi) {
        Worker& w = workers[wi];
        if (w.has_current) {
          w.deque.push_front(w.current);
          w.has_current = false;
          w.remaining = 0;
        }
      }
      live_count = new_count;
      ++next_machine_event;
    }

    // Pull ALL arrivals whose step has come into the arena and global
    // queue as one batch: the budget accumulators are folded per arrival
    // but the (multiplicative) budget formula is recomputed once per
    // batch.  Bit-identical to per-arrival recomputation — the budget is
    // only consulted at the top of the step loop, never mid-batch.
    bool any_arrivals = false;
    while (!source.done() && arrival_to_step(source.next_arrival()) <= step) {
      const std::uint32_t slot = arena.acquire(source.take());
      if (slot >= arrival_step.size()) arrival_step.emplace_back();
      arrival_step[slot] = arrival_to_step(arena[slot].arrival);
      if (auto_budget) {
        budget_last_arrival =
            std::max(budget_last_arrival, arrival_step[slot]);
        budget_total_work += arena[slot].graph.total_work();
        ++budget_jobs;
        any_arrivals = true;
      }
      global_queue.push(slot, arena[slot].weight);
    }
    if (auto_budget && any_arrivals) recompute_budget();

    // Fast-forward across machine-wide idle gaps: if no worker holds work,
    // all deques are empty, and no job is admissible, nothing can change
    // until the next arrival.  The skipped steps are pure idling; a real
    // machine would burn them on failed steals, so saturate fail counters.
    if (global_queue.empty() && !source.done()) {
      bool any_work = false;
      for (const Worker& w : workers)
        if (w.has_current || !w.deque.empty()) {
          any_work = true;
          break;
        }
      if (!any_work) {
        std::uint64_t next = arrival_to_step(source.next_arrival());
        // Never skip across a machine event: the live set changes there.
        if (next_machine_event < machine_events.size())
          next = std::min(next, machine_event_step[next_machine_event]);
        if (next > step) {
          const std::uint64_t skipped = next - step;
          stats.idle_steps += skipped * live_count;
          for (Worker& w : workers) w.fail_count = std::max(w.fail_count, k);
          // The jump target must fit the incremental budget even though
          // the job landing there is not yet acquired.
          if (auto_budget && next > budget_last_arrival) {
            budget_last_arrival = next;
            recompute_budget();
          }
          step = next - 1;  // ++step in the loop header lands on `next`
          continue;
        }
      }
    }

    // The within-step permutation is observable only when some live worker
    // is *not* simply executing its current node: an idle worker pops /
    // admits / steals (racing the others for deques and the global queue),
    // and a completing worker claims enabled successors in permutation
    // order.  On an all-busy step with every remaining counter >= 2, each
    // worker just decrements its own counter, so the shuffle — and the RNG
    // draws producing it — is skipped in both engine modes, keeping their
    // streams aligned.
    bool interactive = false;
    std::uint64_t min_remaining = std::numeric_limits<std::uint64_t>::max();
    for (unsigned wi = 0; wi < live_count; ++wi) {
      if (!workers[wi].has_current) {
        interactive = true;
        break;
      }
      min_remaining = std::min(min_remaining, workers[wi].remaining);
    }

    // Work-quantum fast path: with every live worker busy and nothing due
    // before the earliest completion, advance the machine to one step
    // before the first observable step (completion, arrival, or machine
    // event) in one shot.  The skipped steps perform live_count work units
    // each and nothing else; that final observable step runs through the
    // per-step machinery below.
    if (!interactive && min_remaining > 1 && !options.exact_steps) {
      std::uint64_t delta = min_remaining;
      if (!source.done())
        delta = std::min(delta, arrival_to_step(source.next_arrival()) - step);
      if (next_machine_event < machine_events.size())
        delta = std::min(delta, machine_event_step[next_machine_event] - step);
      if (delta > 1) {
        const std::uint64_t advance = delta - 1;
        for (unsigned wi = 0; wi < live_count; ++wi)
          workers[wi].remaining -= advance;
        stats.work_steps += advance * live_count;
        ++stats.macro_jumps;
        step += advance;
        if (step >= max_steps)
          throw std::logic_error("run_step_engine: step budget exhausted");
        min_remaining -= advance;
      }
    }
    if (min_remaining <= 1) interactive = true;

    // Random worker order within the step (Fisher–Yates), drawn only when
    // observable (see above).
    if (interactive) {
      for (unsigned i = total_workers - 1; i > 0; --i) {
        const auto j = static_cast<unsigned>(rng.uniform_int(i + 1));
        std::swap(perm[i], perm[j]);
      }
    }

    for (unsigned wi = 0; wi < total_workers; ++wi) {
      if (perm[wi] >= live_count) continue;  // failed worker: takes no steps
      Worker& w = workers[perm[wi]];
      if (!w.has_current) {
        if (!w.deque.empty()) {
          // Local pop from the bottom: free.
          const NodeRef r = w.deque.back();
          w.deque.pop_back();
          w.current = r;
          w.has_current = true;
          w.remaining = arena[r.slot].graph.work_of(r.node);
          w.work_start = step;
        } else if (w.fail_count >= k && !global_queue.empty()) {
          // Admit from the global queue: the FIFO head, or — under the
          // weighted-admission extension — the heaviest queued job
          // (ties: earliest queued).  Admission itself is free.
          const std::uint32_t slot = global_queue.pop();
          ++stats.admissions;
          if (options.trace != nullptr)
            options.trace->add_admission({perm[wi], arena[slot].id, step});
          w.fail_count = 0;
          take_ready(w, slot, step);
        } else {
          // Steal attempt: consumes the whole step.
          ++stats.steal_attempts;
          ++stats.idle_steps;
          bool success = false;
          unsigned victim = perm[wi];
          if (total_workers > 1) {
            // Victims include failed workers: their deques survive the
            // failure, and stealing from them is exactly how queued work is
            // recovered.
            victim = static_cast<unsigned>(rng.uniform_int(total_workers - 1));
            if (victim >= perm[wi]) ++victim;  // uniform over the others
            Worker& v = workers[victim];
            if (!v.deque.empty()) {
              // Steal from the top (the oldest work).  Under steal-half,
              // take ceil(|deque|/2) nodes in one attempt.
              const std::size_t grab =
                  options.steal_half ? (v.deque.size() + 1) / 2 : 1;
              const NodeRef r = v.deque.front();
              v.deque.pop_front();
              w.current = r;
              w.has_current = true;
              w.remaining = arena[r.slot].graph.work_of(r.node);
              w.work_start = step + 1;  // execution begins next step
              for (std::size_t g = 1; g < grab; ++g) {
                w.deque.push_back(v.deque.front());
                v.deque.pop_front();
              }
              success = true;
            }
          }
          if (options.trace != nullptr)
            options.trace->add_steal({perm[wi], victim, success, step});
          if (success)
            ++stats.successful_steals, w.fail_count = 0;
          else
            ++w.fail_count;
          continue;  // the step is spent; no work this step
        }
      }

      // Execute one unit of work on the current node.
      --w.remaining;
      ++stats.work_steps;
      if (w.remaining == 0) {
        const std::uint32_t slot = w.current.slot;
        const dag::NodeId v = w.current.node;
        if (options.trace != nullptr)
          options.trace->add_interval({arena[slot].id, v, perm[wi],
                                       step_time(w.work_start, s),
                                       step_time(step + 1, s)});
        w.has_current = false;
        PackedDag& graph = arena[slot].graph;
        enabled.clear();
        graph.complete(v, &enabled);
        if (!enabled.empty()) take_ready(w, slot, step + 1);
        if (graph.done()) {
          const core::Time completion = step_time(step + 1, s);
          if (completion_out != nullptr)
            completion_out->at(arena[slot].id) = completion;
          stream.record(arena[slot].id, arena[slot].arrival,
                        arena[slot].weight, completion);
          arena.retire(slot);
        }
      }
    }
  }

  if (options.trace != nullptr) options.trace->coalesce();
  stats.arena_slots = arena.size();
  stats.peak_live_jobs = arena.peak_live();
  return stats;
}

std::string step_scheduler_name(const StepEngineOptions& options) {
  std::string name =
      options.steal_k == 0
          ? "admit-first"
          : ("steal-" + std::to_string(options.steal_k) + "-first");
  if (options.admit_by_weight) name += "-bwf";
  if (options.steal_half) name += "-half";
  return name;
}

}  // namespace

core::StreamRunResult run_step_engine(core::JobSource& source,
                                      const StepEngineOptions& options,
                                      metrics::StreamingFlowStats* stats,
                                      std::vector<core::Time>* completion) {
  metrics::StreamingFlowStats local;
  metrics::StreamingFlowStats& sink = stats != nullptr ? *stats : local;
  if (completion != nullptr) completion->assign(source.size(), core::kNoTime);
  const core::EngineStats counters =
      run_impl(source, options, completion, sink);
  return sink.result(step_scheduler_name(options), counters);
}

}  // namespace pjsched::sim
