// Host probes: CPU time, peak RSS, hypervisor steal, CPU model, and a
// global operator-new counter that counts only while armed.
#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

double timespec_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::atomic<bool> g_alloc_armed{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

double process_cpu_seconds() {
  return timespec_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() { return timespec_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu  user nice system idle iowait irq softirq steal [guest ...]; guest
  // time is already counted in user and nice.
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return out;
  out.steal = v[7];
  for (const unsigned long long x : v) out.total += x;
  return out;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
          model.erase(model.begin());
        while (!model.empty() && (model.back() == '\n' || model.back() == ' '))
          model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void set_alloc_counting(bool on) {
  g_alloc_armed.store(on, std::memory_order_relaxed);
}

namespace {

void* counted_alloc(std::size_t size) {
  if (g_alloc_armed.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  if (g_alloc_armed.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc_aligned(size,
                                          static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc_aligned(size,
                                          static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
