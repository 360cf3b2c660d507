// Wall-clock spans around the calls the benchmark makes into each layer of
// the program. A span records its name, start, end, enclosing span and the
// simulated job it worked for. Spans stay in memory until the run ends.
//
// A disabled recorder records nothing: open() returns kNoSpan without
// reading the clock, so the untimed bookkeeping in untraced runs is one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mayflower::perfbench {

struct Span {
  std::uint32_t name = 0;     // index into SpanRecorder::names()
  std::int32_t parent = -1;   // enclosing span, -1 at the root
  std::int64_t job = -1;      // simulated job, -1 when none is in scope
  std::int64_t start_ns = 0;  // relative to the recorder's epoch
  std::int64_t end_ns = -1;   // -1 while open
};

inline constexpr std::int32_t kNoSpan = -1;

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  // Stable id for a span name.
  std::uint32_t intern(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }

  // Opens a span inside the innermost open one. Returns its index, or
  // kNoSpan when disabled.
  std::int32_t open(std::uint32_t name);
  // Closes `index`, which must be the innermost open span (kNoSpan: no-op).
  void close(std::int32_t index);

  // Job id stamped on spans opened from now on (-1: none).
  void set_job(std::int64_t job) { job_ = job; }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t open_count() const { return stack_.size(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::int64_t job_ = -1;
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::uint32_t name)
      : rec_(&rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_->close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

// Self time of every span: its duration minus the part of its interval
// covered by its direct children (the union of their intervals, clipped to
// the span). Spans must all be closed.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// Writes the spans as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing). Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const SpanRecorder& rec);

}  // namespace mayflower::perfbench
