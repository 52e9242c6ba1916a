// Fixture: ambient randomness, wall-clock reads and thread identity — the
// run is no longer a function of its seed.  Staged anywhere in src/ (not
// sim/rng.cc) every function fires [entropy-source], thread_slot() twice
// (the hash and the read).
#include <chrono>
#include <cstdlib>
#include <functional>
#include <random>
#include <thread>

namespace pjsched::sim {

double jitter() {
  std::mt19937 gen(42);  // seeded outside the Rng
  return static_cast<double>(gen()) / 4294967296.0;
}

unsigned ambient_seed() {
  std::random_device rd;
  return rd();
}

int ambient_rand() { return rand() % 6; }

long wall_clock_ns() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

std::size_t thread_slot() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 8;
}

}  // namespace pjsched::sim
