// Span tracing for the benchmark's traced run.
//
// The benchmark opens a span around every call it makes into one of the
// repository's modules (image, nn, detect, vip, runtime). Spans of one
// camera frame share its frame id and record the span that was open on
// the same thread when they started (their parent). Records land in
// storage sized before the run starts; a full buffer counts the
// overflow instead of allocating. Everything is written out once, after
// the measured phase, as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it).
//
// With no tracer installed a Span is a single branch: the untraced run
// that produces the end-to-end metrics pays nothing for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< "<layer>.<call>", a string literal
  int frame = -1;              ///< camera frame id (-1: none)
  int parent = -1;             ///< index of the enclosing span, -1 at root
  int tid = 0;                 ///< small per-thread id
  std::int64_t start_ns = 0;   ///< steady clock, relative to the tracer
  std::int64_t end_ns = -1;    ///< -1 while the span is open
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Installs `tracer` as the process-wide sink (nullptr: tracing off).
  static void install(Tracer* tracer) noexcept;
  static Tracer* active() noexcept;

  /// Completed records in open order; call after all traced threads
  /// finished their spans.
  std::vector<SpanRecord> records() const;
  std::uint64_t overflow() const noexcept { return overflow_.load(); }

  /// Writes {"traceEvents": [...], "otherData": <metadata>}; `metadata`
  /// must be a JSON object.
  void write_chrome_json(std::ostream& out, const std::string& metadata) const;

  // Used by Span.
  int open(const char* name, int frame) noexcept;
  void close(int index) noexcept;

 private:
  std::int64_t now_ns() const noexcept;

  std::vector<SpanRecord> slots_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::int64_t origin_ns_ = 0;
};

/// RAII span on the active tracer.
class Span {
 public:
  Span(const char* name, int frame) noexcept {
    if (Tracer* t = Tracer::active()) {
      tracer_ = t;
      index_ = t->open(name, frame);
    }
  }
  ~Span() {
    if (tracer_ != nullptr && index_ >= 0) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  int index_ = -1;
};

/// Self time of every record: its duration minus the part of its
/// interval covered by its children (overlapping children count once).
/// Open records get 0.
std::vector<double> self_times_ms(const std::vector<SpanRecord>& records);

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const char* name);

}  // namespace perfbench
