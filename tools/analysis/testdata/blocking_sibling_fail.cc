// Fixture: blocking_sibling_pass.cc's twin with the wait moved inside the
// locked block, so the thread sleeps on the job while holding mu_.
// Expect [blocking-under-lock].
#include "src/runtime/mutex.h"

class Refill {
 public:
  void run(Handle* oldest) {
    {
      MutexLock lock(mu_);
      ticks_ = ticks_ + 1;
      if (oldest != nullptr) {
        oldest->wait_for(budget_);
      }
    }
  }

 private:
  Mutex mu_;
  int ticks_ = 0;
  int budget_ = 1;
};
