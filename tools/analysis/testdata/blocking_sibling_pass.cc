// Fixture: a scoped lock's block closes before a wait that sits in a
// sibling block at the same brace depth (a refill loop's shape: read the
// oldest in-flight job under the lock, then wait on it outside).  Depth
// alone cannot tell the two blocks apart.  Expect clean.
#include "src/runtime/mutex.h"

class Refill {
 public:
  void run(Handle* oldest) {
    {
      MutexLock lock(mu_);
      ticks_ = ticks_ + 1;
    }
    if (oldest != nullptr) {
      oldest->wait_for(budget_);
    }
  }

 private:
  Mutex mu_;
  int ticks_ = 0;
  int budget_ = 1;
};
