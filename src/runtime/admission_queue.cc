#include "src/runtime/admission_queue.h"

namespace pjsched::runtime {

AdmissionQueue::PushResult AdmissionQueue::push(Task* task, Task** evicted) {
  *evicted = nullptr;
  MutexLock lock(mu_);
  if (closed_) {
    ++stats_.rejected_closed;
    return PushResult::kRejected;
  }
  if (full_locked()) {
    switch (policy_) {
      case BackpressurePolicy::kBlock:
        // Plain predicate loop (not a wait-with-lambda): the thread-safety
        // analysis must see that full_locked()/closed_ are read under mu_,
        // and it cannot look inside a lambda body.
        while (full_locked() && !closed_) space_cv_.wait(mu_);
        if (closed_) {
          ++stats_.rejected_closed;
          return PushResult::kRejected;
        }
        break;
      case BackpressurePolicy::kRejectNewest:
        ++stats_.rejected_full;
        return PushResult::kRejected;
      case BackpressurePolicy::kShedOldest:
        *evicted = queue_.front();
        queue_.pop_front();
        ++stats_.shed;
        break;
    }
  }
  queue_.push_back(task);
  ++stats_.accepted;
  if (queue_.size() > stats_.peak_depth) stats_.peak_depth = queue_.size();
  return PushResult::kAccepted;
}

Task* AdmissionQueue::try_pop() {
  Task* t = nullptr;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return nullptr;
    t = queue_.front();
    queue_.pop_front();
    ++stats_.popped;
  }
  space_cv_.notify_one();
  return t;
}

void AdmissionQueue::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  space_cv_.notify_all();
}

std::size_t AdmissionQueue::size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  MutexLock lock(mu_);
  Stats snapshot = stats_;
  snapshot.depth = queue_.size();
  return snapshot;
}

}  // namespace pjsched::runtime
