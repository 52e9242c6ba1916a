// Occupies a one-worker runtime::ThreadPool until released, so the jobs
// submitted behind it queue deterministically in the admission queue.
#pragma once

#include <atomic>
#include <thread>

#include "src/runtime/thread_pool.h"

namespace pjsched::testutil {

struct WorkerGate {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};

  /// Submits the gate job and returns once the worker is inside it.
  runtime::JobHandle submit_to(runtime::ThreadPool& pool) {
    auto handle = pool.submit([this](runtime::TaskContext&) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!started.load()) std::this_thread::yield();
    return handle;
  }
};

}  // namespace pjsched::testutil
