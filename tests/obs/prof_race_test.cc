// TSan stress tests for the profiling tier's concurrent structures
// (tools/ci.sh runs the ProfRace* suite under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/lock_stats.h"
#include "common/mutex.h"
#include "obs/metrics.h"
#include "obs/prof/flight_recorder.h"
#include "obs/prof/heap_stats.h"
#include "obs/prof/lock_metrics.h"
#include "obs/prof/sample_ring.h"

namespace alicoco::obs::prof {
namespace {

TEST(ProfRaceTest, SampleRingMpmcDeliversEveryAcceptedPush) {
  SampleRing<uint64_t> ring(256);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 20000;

  std::atomic<uint64_t> pushed_ok{0};
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<bool> producing{true};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Values are globally unique so a duplicated or torn slot would
        // corrupt the checksum below.
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        if (ring.TryPush(value)) {
          pushed_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t value = 0;
      for (;;) {
        if (ring.TryPop(&value)) {
          popped.fetch_add(1, std::memory_order_relaxed);
          popped_sum.fetch_add(value, std::memory_order_relaxed);
          continue;
        }
        // An empty pop is final only once the producers have all joined:
        // no slot can still be mid-publish at that point.
        if (!producing.load(std::memory_order_acquire)) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  producing.store(false, std::memory_order_release);
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), pushed_ok.load());
  EXPECT_EQ(pushed_ok.load() + ring.dropped(), kProducers * kPerProducer);
  EXPECT_GT(popped_sum.load(), 0u);
}

#if ALICOCO_LOCK_STATS
TEST(ProfRaceTest, NamedMutexHammerWithSinkInstalled) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  Mutex mu{"race.hammer.mu"};
  CondVar cv;
  uint64_t shared = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++shared;
      }
      cv.NotifyAll();
    });
  }
  for (auto& t : threads) t.join();

  {
    MutexLock lock(mu);
    EXPECT_EQ(shared, static_cast<uint64_t>(kThreads) * kIters);
  }
  EXPECT_GE(metrics.total_acquires(),
            static_cast<uint64_t>(kThreads) * kIters);
  const Counter* acquires =
      registry.FindCounter("lock.acquires{mutex=race.hammer.mu}");
  ASSERT_NE(acquires, nullptr);
  EXPECT_GE(acquires->value(), static_cast<uint64_t>(kThreads) * kIters);
}
#endif  // ALICOCO_LOCK_STATS

TEST(ProfRaceTest, FlightRecorderConcurrentRecordAndSnapshot) {
  FlightRecorder recorder(128);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> writing{true};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.Record("mark", "writer-" + std::to_string(w) + "-event-" +
                                    std::to_string(i));
      }
    });
  }
  std::thread reader([&] {
    while (writing.load(std::memory_order_acquire)) {
      std::vector<std::string> lines = recorder.Snapshot();
      EXPECT_LE(lines.size(), 128u);
      // Accepted lines must be whole: Snapshot discards torn slots, so
      // every survivor parses as one complete JSON object.
      for (const std::string& line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
      }
    }
  });
  for (auto& t : writers) t.join();
  writing.store(false, std::memory_order_release);
  reader.join();

  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  std::vector<std::string> final_lines = recorder.Snapshot();
  EXPECT_EQ(final_lines.size(), 128u);
}

// The heap counters are per-thread slots summed on read: every thread's
// allocations must show up in the sum exactly, including threads that
// have already exited, threads that share a slot while both allocate,
// and threads that reuse the slot of an exited one.
TEST(ProfRaceTest, HeapCountersSumEveryThreadsAllocations) {
  ASSERT_TRUE(HeapHookLinked());
  ASSERT_FALSE(HeapTrackingEnabled());

  // What one probe counts (a sized or an unsized delete[] is the
  // compiler's choice, so free bytes are measured, not assumed).
  constexpr size_t kBytes = 64;
  HeapCounters probe_before;
  HeapCounters probe_after;
  {
    ScopedHeapTracking tracking;
    probe_before = HeapCountersNow();
    HeapProbeAlloc(kBytes);
    probe_after = HeapCountersNow();
  }
  ASSERT_EQ(probe_after.allocs - probe_before.allocs, 1u);
  ASSERT_EQ(probe_after.frees - probe_before.frees, 1u);
  ASSERT_EQ(probe_after.alloc_bytes - probe_before.alloc_bytes, kBytes);
  const uint64_t probe_free_bytes =
      probe_after.free_bytes - probe_before.free_bytes;

  // Slots go out in claim order, and the threads of a wave claim in
  // turn, so with kHeapCounterSlots + kPairs threads the first kPairs
  // and the last kPairs share slots pairwise. Those 2 * kPairs threads
  // then allocate in bulk at the same time; the rest only claim. Each
  // wave reuses slots of the previous wave's exited threads.
  constexpr int kPairs = 2;
  constexpr int kThreads = internal::kHeapCounterSlots + kPairs;
  constexpr int kWaves = 3;
  constexpr int kPerThread = 20000;
  for (int wave = 0; wave < kWaves; ++wave) {
    // The threads start (std::thread allocates its state) and finish
    // (it frees that state) with tracking off, so the window between
    // the two snapshots holds only the probes. Waiting does not
    // allocate.
    std::atomic<bool> go{false};
    std::atomic<bool> leave{false};
    std::atomic<int> turn{0};
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        go.wait(false, std::memory_order_acquire);
        while (turn.load(std::memory_order_acquire) != t) {
          std::this_thread::yield();
        }
        HeapProbeAlloc(kBytes);  // claims this thread's slot
        turn.store(t + 1, std::memory_order_release);
        if (t < kPairs || t >= internal::kHeapCounterSlots) {
          while (turn.load(std::memory_order_acquire) < kThreads) {
            std::this_thread::yield();
          }
          for (int i = 0; i < kPerThread; ++i) HeapProbeAlloc(kBytes);
        }
        done.fetch_add(1, std::memory_order_release);
        leave.wait(false, std::memory_order_acquire);
      });
    }
    const HeapCounters before = HeapCountersNow();
    SetHeapTrackingEnabled(true);
    go.store(true, std::memory_order_release);
    go.notify_all();
    while (done.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    SetHeapTrackingEnabled(false);
    const HeapCounters after = HeapCountersNow();
    leave.store(true, std::memory_order_release);
    leave.notify_all();
    for (auto& t : threads) t.join();

    const uint64_t probes = kThreads + uint64_t{2 * kPairs} * kPerThread;
    EXPECT_EQ(after.allocs - before.allocs, probes) << "wave " << wave;
    EXPECT_EQ(after.frees - before.frees, probes) << "wave " << wave;
    EXPECT_EQ(after.alloc_bytes - before.alloc_bytes, probes * kBytes)
        << "wave " << wave;
    EXPECT_EQ(after.free_bytes - before.free_bytes, probes * probe_free_bytes)
        << "wave " << wave;
  }
  // The exited threads' counts stay in their slots.
  const HeapCounters end = HeapCountersNow();
  EXPECT_EQ(end.allocs - probe_after.allocs,
            kWaves * (kThreads + uint64_t{2 * kPairs} * kPerThread));
}

}  // namespace
}  // namespace alicoco::obs::prof
