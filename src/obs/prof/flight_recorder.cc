#include "obs/prof/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/check.h"
#include "common/lock_stats.h"
#include "common/string_util.h"

namespace alicoco::obs::prof {
namespace {

// Crash-dump registration. The handlers run with the world on fire, so
// everything they need is preallocated here: the recorder pointer and a
// fixed copy of the output path.
constinit std::atomic<FlightRecorder*> g_crash_recorder{nullptr};
constinit char g_crash_path[512] = {};
constinit std::atomic<bool> g_crash_dumped{false};

const int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL};

// Async-signal-safe: open + write of prebuilt bytes only.
void DumpOnce() {
  if (g_crash_dumped.exchange(true, std::memory_order_acq_rel)) return;
  FlightRecorder* recorder = g_crash_recorder.load(std::memory_order_acquire);
  if (recorder == nullptr || g_crash_path[0] == '\0') return;
  int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  recorder->DumpToFd(fd);
  ::fsync(fd);
  ::close(fd);
}

void FatalSignalHandler(int signo) {
  DumpOnce();
  // Restore default disposition and re-raise so the process still dies
  // with the original signal (core dumps, exit codes, CI diagnostics).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

// Runs in normal context (CheckFailure's destructor), so recording the
// message before dumping is allowed.
void CheckFailureDump(const char* message) {
  FlightRecorder* recorder = g_crash_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr) recorder->Record("check", message);
  DumpOnce();
}

// Minimal JSON string escape into a bounded buffer. Returns bytes
// written (excluding NUL); stops early when out of room.
size_t JsonEscapeInto(std::string_view in, char* out, size_t out_size) {
  size_t w = 0;
  auto put = [&](char c) {
    if (w + 1 < out_size) out[w++] = c;
  };
  for (char c : in) {
    switch (c) {
      case '"':
        put('\\');
        put('"');
        break;
      case '\\':
        put('\\');
        put('\\');
        break;
      case '\n':
        put('\\');
        put('n');
        break;
      case '\t':
        put('\\');
        put('t');
        break;
      case '\r':
        put('\\');
        put('r');
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          put('?');  // other control chars: not worth 6-byte escapes here
        } else {
          put(c);
        }
    }
  }
  out[w] = '\0';
  return w;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) {
  size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    slots_[i].line[0].store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::LoadLine(const Slot& slot, char* dst) {
  uint64_t words[kLineWords];
  for (size_t w = 0; w < kLineWords; ++w) {
    words[w] = slot.line[w].load(std::memory_order_relaxed);
  }
  std::memcpy(dst, words, kLineBytes);
}

FlightRecorder::~FlightRecorder() {
  // Tear down the crash registration if it points at us; handlers must
  // never chase a dangling recorder.
  FlightRecorder* self = this;
  g_crash_recorder.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
}

void FlightRecorder::Record(std::string_view kind, std::string_view detail) {
  const uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t lap = pos + 1;  // the slot's published seq value

  char kind_buf[16];
  char detail_buf[kLineBytes];
  JsonEscapeInto(kind, kind_buf, sizeof(kind_buf));
  const size_t detail_room = kLineBytes - 64;  // header + slack
  size_t written = JsonEscapeInto(detail, detail_buf, detail_room);
  if (written + 1 >= detail_room && detail.size() > written) {
    // Mark truncation visibly; the buffer has room by construction.
    std::memcpy(detail_buf + written - 3, "...", 4);
  }
  char formatted[kLineBytes];
  std::snprintf(formatted, kLineBytes,
                "{\"seq\":%llu,\"t_us\":%llu,\"kind\":\"%s\",\"detail\":\"%s\"}",
                static_cast<unsigned long long>(pos),
                static_cast<unsigned long long>(LockStatsNowUs()), kind_buf,
                detail_buf);
  uint64_t words[kLineWords];
  std::memcpy(words, formatted, kLineBytes);

  // Claim the slot. Two writers a whole ring apart map to the same slot;
  // the newer lap always wins. A writer that finds a newer lap (written
  // or mid-write) drops its event, which the ring would overwrite anyway;
  // one that finds an older lap mid-write waits out that writer's word
  // copy, so lines never mix and an older lap never publishes over a
  // newer one. The acquire on success orders our words after the older
  // writer's.
  Slot& slot = slots_[pos & mask_];
  uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seen & ~kWriting) >= lap) return;
    if ((seen & kWriting) != 0) {
      std::this_thread::yield();
      seen = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seen, lap | kWriting,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      break;
    }
  }

  // Seqlock write side. The claim invalidated the slot for readers (they
  // accept only seq == pos+1); the release fence orders that before the
  // payload words (a reader that sees any new word also sees the claim),
  // and the release store of pos+1 publishes the completed line.
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kLineWords; ++w) {
    slot.line[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(lap, std::memory_order_release);
}

std::vector<std::string> FlightRecorder::Snapshot() const {
  std::vector<std::string> out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t cap = mask_ + 1;
  const uint64_t begin = head > cap ? head - cap : 0;
  out.reserve(static_cast<size_t>(head - begin));
  for (uint64_t pos = begin; pos < head; ++pos) {
    const Slot& slot = slots_[pos & mask_];
    uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) continue;  // overwritten or mid-write
    char local[kLineBytes];
    LoadLine(slot, local);
    // The acquire fence orders the word loads before the re-check: a
    // torn copy cannot slip past an unchanged seq.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != pos + 1) continue;
    local[kLineBytes - 1] = '\0';
    out.emplace_back(local);
  }
  return out;
}

Status FlightRecorder::DumpJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  for (const std::string& line : Snapshot()) {
    out << line << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

size_t FlightRecorder::DumpToFd(int fd) const {
  size_t total = 0;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t cap = mask_ + 1;
  const uint64_t begin = head > cap ? head - cap : 0;
  for (uint64_t pos = begin; pos < head; ++pos) {
    const Slot& slot = slots_[pos & mask_];
    uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) continue;
    char local[kLineBytes + 1];
    LoadLine(slot, local);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != pos + 1) continue;
    local[kLineBytes] = '\0';
    size_t len = 0;
    while (len < kLineBytes && local[len] != '\0') ++len;
    local[len] = '\n';
    ssize_t n = ::write(fd, local, len + 1);
    if (n > 0) total += static_cast<size_t>(n);
  }
  return total;
}

void FlightRecorder::InstallCrashDump(const std::string& path) {
  ALICOCO_CHECK(path.size() + 1 < sizeof(g_crash_path))
      << "crash dump path too long";
  FlightRecorder* expected = nullptr;
  ALICOCO_CHECK(g_crash_recorder.compare_exchange_strong(expected, this))
      << "a FlightRecorder crash dump is already installed";
  std::memcpy(g_crash_path, path.c_str(), path.size() + 1);
  g_crash_dumped.store(false, std::memory_order_release);

  SetCheckFailureHandler(&CheckFailureDump);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FatalSignalHandler;
  sigemptyset(&action.sa_mask);
  for (int signo : kFatalSignals) {
    sigaction(signo, &action, nullptr);
  }
}

void FlightRecorder::UninstallCrashDumpForTest() {
  g_crash_recorder.store(nullptr, std::memory_order_release);
  g_crash_path[0] = '\0';
  g_crash_dumped.store(false, std::memory_order_release);
  SetCheckFailureHandler(nullptr);
  for (int signo : kFatalSignals) {
    ::signal(signo, SIG_DFL);
  }
}

void FlightRecorderLogSink::Write(const LogRecord& record) {
  recorder_->Record(
      "log", StringPrintf("%s:%d %s", record.file, record.line,
                          record.message.c_str()));
}

Tracer::SpanListener MakeSpanFlightListener(FlightRecorder* recorder) {
  return [recorder](const SpanRecord& span) {
    recorder->Record(
        "span", StringPrintf("%s dur_us=%llu parent=%llu", span.name.c_str(),
                             static_cast<unsigned long long>(span.duration_us),
                             static_cast<unsigned long long>(span.parent_id)));
  };
}

}  // namespace alicoco::obs::prof
