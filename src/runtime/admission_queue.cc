#include "src/runtime/admission_queue.h"

namespace pjsched::runtime {

bool AdmissionQueue::push(Task* task) {
  MutexLock lock(mu_);
  if (closed_) return false;
  queue_.push_back(task);
  ++stats_.accepted;
  if (queue_.size() > stats_.peak_depth) stats_.peak_depth = queue_.size();
  return true;
}

Task* AdmissionQueue::try_pop() {
  MutexLock lock(mu_);
  if (queue_.empty()) return nullptr;
  Task* t = queue_.front();
  queue_.pop_front();
  ++stats_.popped;
  return t;
}

void AdmissionQueue::close() {
  MutexLock lock(mu_);
  closed_ = true;
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
