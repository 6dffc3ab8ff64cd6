// Process-wide heap attribution counters fed by an opt-in global
// operator new/delete override (alloc_hook.cc).
//
// The hook is an OBJECT library linked only into binaries that opt in
// (bench/obs_report, the obs tests) — production tools pay nothing, not
// even the branch. Within a hooked binary the counters start disabled;
// SetHeapTrackingEnabled(true) flips one relaxed atomic that every
// allocation checks. The counts live in a fixed array of cache-line-sized
// slots: a thread claims a slot on its first tracked allocation and bumps
// only that slot, so pool threads never share a counter line until there
// are more threads than slots (then two threads share one and merely
// contend). HeapCountersNow() sums the slots on read. The counters are
// cumulative and monotonic (frees are counted separately, never
// subtracted, and an exited thread's counts stay in its slot), so
// per-stage attribution is a simple before/after delta: the pipeline
// runs its stages sequentially on the main thread, and worker
// allocations inside a stage land in that stage's window, which is
// exactly the attribution we want.
//
//   SetHeapTrackingEnabled(true);
//   HeapCounters before = HeapCountersNow();
//   ... stage ...
//   HeapCounters after = HeapCountersNow();
//   uint64_t stage_bytes = after.alloc_bytes - before.alloc_bytes;
//
// Sized deletes report exact byte counts; unsized deletes are counted
// but contribute 0 bytes freed, so `alloc_bytes - free_bytes` is an
// upper bound on live bytes, not an exact figure. Peak footprint comes
// from the kernel instead: PeakRssBytes() reads getrusage(ru_maxrss).

#ifndef ALICOCO_OBS_PROF_HEAP_STATS_H_
#define ALICOCO_OBS_PROF_HEAP_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace alicoco::obs::prof {

namespace internal {
// One thread's (or, past kHeapCounterSlots threads, a few threads')
// counters, alone on its cache line.
struct alignas(64) HeapCounterSlot {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};
  std::atomic<uint64_t> alloc_bytes{0};
  std::atomic<uint64_t> free_bytes{0};
};
inline constexpr int kHeapCounterSlots = 64;
// Bumped by alloc_hook.cc when tracking is enabled. constinit so the
// hook is safe during static initialization of other TUs.
extern HeapCounterSlot g_heap_slots[kHeapCounterSlots];
extern std::atomic<bool> g_heap_tracking;
// Set once by the hook TU's initializer; lets callers distinguish "no
// allocations" from "hook not linked in".
extern std::atomic<bool> g_heap_hook_linked;
}  // namespace internal

struct HeapCounters {
  uint64_t allocs = 0;       ///< operator new calls
  uint64_t frees = 0;        ///< operator delete calls
  uint64_t alloc_bytes = 0;  ///< bytes requested from operator new
  uint64_t free_bytes = 0;   ///< bytes from sized deletes only
};

/// Snapshot of the cumulative counters, summed over every slot. All
/// zeros when the hook is not linked or tracking was never enabled.
HeapCounters HeapCountersNow();

/// True when alloc_hook.cc is linked into this binary.
bool HeapHookLinked();

/// Turns counting on/off; counters are not reset. Callable whether or
/// not the hook is linked (a no-op without it).
void SetHeapTrackingEnabled(bool enabled);
bool HeapTrackingEnabled();

/// RAII enable/restore, for tests.
class ScopedHeapTracking {
 public:
  ScopedHeapTracking() : prev_(HeapTrackingEnabled()) {
    SetHeapTrackingEnabled(true);
  }
  ~ScopedHeapTracking() { SetHeapTrackingEnabled(prev_); }
  ScopedHeapTracking(const ScopedHeapTracking&) = delete;
  ScopedHeapTracking& operator=(const ScopedHeapTracking&) = delete;

 private:
  bool prev_;
};

/// Lifetime peak resident set size of this process in bytes, from
/// getrusage; 0 where unavailable. Kernel-truth complement to the
/// allocator counters (includes code, stacks, arena slack).
uint64_t PeakRssBytes();

/// Observable allocation probes, defined in alloc_hook.cc (link error
/// without the hook — probing an unhooked binary is a bug). Each performs
/// one un-elidable allocate/free pair: through operator new[]/delete[]
/// (`HeapProbeAlloc`), through the over-aligned operator set
/// (`HeapProbeAllocAligned`, 64-byte alignment), or through plain
/// malloc/free bypassing the hook (`HeapProbeMalloc`, the subtraction
/// baseline for overhead measurement).
void HeapProbeAlloc(std::size_t bytes);
void HeapProbeAllocAligned(std::size_t bytes);
void HeapProbeMalloc(std::size_t bytes);

}  // namespace alicoco::obs::prof

#endif  // ALICOCO_OBS_PROF_HEAP_STATS_H_
