// Always-on flight recorder: a bounded ring of recent events (spans, log
// lines, free-form markers) that can be dumped when the process dies.
//
// The black-box model: recording is cheap and constant-cost, the ring
// overwrites its oldest entries forever, and nothing is written anywhere
// until a CHECK failure or fatal signal asks "what just happened?" — at
// which point the last N events go to a JSONL file. The crash path must
// be async-signal-safe, so each event is formatted into a fixed-size
// JSONL line at record time (snprintf in normal context); the dump is
// then nothing but open() + write() + fsync() over prebuilt bytes.
//
// Slot protocol (single-writer-per-slot variant of the sample ring):
// head_.fetch_add hands each writer a position pos; the writer claims
// slot pos % capacity by CAS-ing its seq to pos+1 | kWriting, copies the
// line, then release-stores seq = pos+1. Writers a whole ring apart meet
// at one slot; the newer lap wins: an older writer that finds a newer
// lap there drops its (already stale) event, and a newer writer that
// finds an older one mid-copy waits for that copy to finish, so an older
// lap never publishes over a newer one. A snapshot reader accepts a slot
// only when it reads the same valid seq before and after copying the
// text, so torn writes are discarded rather than emitted. The crash dump
// runs wait-free: it never loops on a slot, it just skips ones mid-write.
//
//   FlightRecorder recorder(1024);
//   recorder.InstallCrashDump("crash_flight.jsonl");  // CHECK + signals
//   recorder.Record("stage mining begin");
//   tracer.SetSpanListener(MakeSpanFlightListener(&recorder));
//   Logger::AddSink(new FlightRecorderLogSink(&recorder));  // tee
//
// One recorder per process may install the crash dump; the handlers keep
// a raw pointer, so that recorder must outlive the process (make it a
// main()-scope local or a leaked singleton, not a temporary).

#ifndef ALICOCO_OBS_PROF_FLIGHT_RECORDER_H_
#define ALICOCO_OBS_PROF_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "obs/trace.h"

namespace alicoco::obs::prof {

class FlightRecorder {
 public:
  /// Payload bytes kept per event; longer lines are truncated with a
  /// trailing ellipsis marker inside the JSON string.
  static constexpr size_t kLineBytes = 224;

  /// `capacity` events are retained (rounded up to a power of two).
  explicit FlightRecorder(size_t capacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event of `kind` ("span", "log", "mark", ...) with a
  /// human-readable detail string. Formats the JSONL line here, in normal
  /// context; thread-safe and never allocates beyond the snprintf stack
  /// buffer. It waits only behind a writer a whole ring older still
  /// copying into the same slot.
  void Record(std::string_view kind, std::string_view detail);

  /// Shorthand for free-form markers: Record("mark", detail).
  void Record(std::string_view detail) { Record("mark", detail); }

  /// Events recorded since construction (monotonic; ring keeps the tail).
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Copies out the retained events, oldest first. Skips slots that are
  /// mid-write. Normal-context only (allocates).
  std::vector<std::string> Snapshot() const;

  /// Writes the snapshot as JSONL to `path` (truncates). Normal-context
  /// convenience wrapper over Snapshot.
  [[nodiscard]] Status DumpJsonl(const std::string& path) const;

  /// Async-signal-safe dump to an already-open fd: raw open/write only,
  /// no allocation, no locks. Returns bytes written.
  size_t DumpToFd(int fd) const;

  /// Registers this recorder as the process crash dumper: on CHECK
  /// failure (common/check.h handler) or SIGSEGV/SIGBUS/SIGABRT/SIGFPE,
  /// the ring is dumped to `path` before the process dies. CHECK-fails
  /// if another recorder already installed itself.
  void InstallCrashDump(const std::string& path);

  /// Test hook: drops the process-wide crash-dump registration.
  static void UninstallCrashDumpForTest();

 private:
  /// Payload words per slot. The line bytes live in relaxed atomics so
  /// the seqlock protocol (invalidate, write, publish / read, re-check)
  /// is race-free under the C++ memory model: a torn read is *rejected*
  /// by the seq double-check, but the word accesses themselves must be
  /// atomic for the rejection to be well-defined (and TSan-clean).
  static constexpr size_t kLineWords = kLineBytes / sizeof(uint64_t);
  static_assert(kLineBytes % sizeof(uint64_t) == 0,
                "line buffer must be word-copyable");

  /// Set in a slot's seq while a writer copies its line in.
  static constexpr uint64_t kWriting = uint64_t{1} << 63;

  struct Slot {
    /// 0 = empty, pos+1 = published, pos+1 | kWriting = mid-write.
    std::atomic<uint64_t> seq{0};
    /// NUL-terminated JSONL (no newline), 8 bytes per word.
    std::atomic<uint64_t> line[kLineWords];
  };

  /// Relaxed word copy of a slot's line into a caller buffer of
  /// kLineBytes; pair with the acquire fence + seq re-check.
  static void LoadLine(const Slot& slot, char* dst);

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};
};

/// LogSink tee: forwards every log record into the recorder (install it
/// alongside the normal sinks; it does not replace them).
class FlightRecorderLogSink : public LogSink {
 public:
  explicit FlightRecorderLogSink(FlightRecorder* recorder)
      : recorder_(recorder) {}
  void Write(const LogRecord& record) override;

 private:
  FlightRecorder* const recorder_;
};

/// Span listener for Tracer::SetSpanListener: records each finished span
/// as a "span" event (name, duration, parent).
Tracer::SpanListener MakeSpanFlightListener(FlightRecorder* recorder);

}  // namespace alicoco::obs::prof

#endif  // ALICOCO_OBS_PROF_FLIGHT_RECORDER_H_
