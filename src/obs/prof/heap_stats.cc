#include "obs/prof/heap_stats.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define ALICOCO_PROF_HAVE_GETRUSAGE 1
#else
#define ALICOCO_PROF_HAVE_GETRUSAGE 0
#endif

namespace alicoco::obs::prof {

namespace internal {
constinit HeapCounterSlot g_heap_slots[kHeapCounterSlots];
constinit std::atomic<bool> g_heap_tracking{false};
constinit std::atomic<bool> g_heap_hook_linked{false};
}  // namespace internal

HeapCounters HeapCountersNow() {
  HeapCounters out;
  for (const internal::HeapCounterSlot& slot : internal::g_heap_slots) {
    out.allocs += slot.allocs.load(std::memory_order_relaxed);
    out.frees += slot.frees.load(std::memory_order_relaxed);
    out.alloc_bytes += slot.alloc_bytes.load(std::memory_order_relaxed);
    out.free_bytes += slot.free_bytes.load(std::memory_order_relaxed);
  }
  return out;
}

bool HeapHookLinked() {
  return internal::g_heap_hook_linked.load(std::memory_order_relaxed);
}

void SetHeapTrackingEnabled(bool enabled) {
  internal::g_heap_tracking.store(enabled, std::memory_order_relaxed);
}

bool HeapTrackingEnabled() {
  return internal::g_heap_tracking.load(std::memory_order_relaxed);
}

uint64_t PeakRssBytes() {
#if ALICOCO_PROF_HAVE_GETRUSAGE
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace alicoco::obs::prof
