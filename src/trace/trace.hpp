// Structured tracing: per-thread lock-free ring buffers of binary events
// with a process-wide recorder that snapshots all rings without stopping
// writers.
//
// Design:
//   * Always compiled, runtime-enabled. A disabled TRACE_* site costs one
//     relaxed atomic load plus a branch — no clock read, no allocation.
//   * Each emitting thread owns a fixed-capacity SPSC ring of 5-word
//     binary events (timestamp, duration, trace id, interned ids + type,
//     value). The writer never blocks and never allocates on the hot
//     path; when the ring wraps, the oldest events are overwritten and
//     counted in `dropped`.
//   * Snapshots use a seqlock-style protocol: the writer publishes
//     `reserve` (the index it is about to overwrite) before touching a
//     slot and `head` after the slot is complete; the reader keeps only
//     slots that were complete before it started and untouched since, so
//     a snapshot taken during active writing yields only whole events.
//   * Spans are recorded once, at scope exit, as complete (start,
//     duration) pairs — a snapshot can never contain a half-open span.
//   * Category and name strings are interned to small ids; the binary
//     event holds ids only. A per-thread cache keyed on the string's
//     address makes interning lock-free after first use per site.
//
// Export: see chrome_export.hpp for the Chrome trace-event / Perfetto
// JSON serialization, and docs/TRACING.md for the event model and the
// overhead numbers.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fbmb::trace {

enum class EventType : std::uint8_t { kSpan = 0, kInstant = 1, kCounter = 2 };

/// Decoded event, as returned by TraceRecorder::snapshot(). `category`
/// and `name` index into the snapshot's string tables.
struct Event {
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since recorder epoch
  std::uint64_t dur_ns = 0;  ///< spans only; 0 otherwise
  std::uint64_t trace_id = 0;
  std::uint32_t name = 0;
  std::uint16_t category = 0;
  EventType type = EventType::kInstant;
  double value = 0.0;  ///< counters only
};

/// All events captured from one thread's ring, oldest first.
struct ThreadTrace {
  std::uint64_t tid = 0;  ///< recorder-assigned, stable per thread
  std::string name;       ///< e.g. "msynth-w3"; empty if never named
  std::uint64_t dropped = 0;  ///< events overwritten before this snapshot
  std::vector<Event> events;
};

struct TraceSnapshot {
  std::vector<std::string> categories;
  std::vector<std::string> names;
  std::vector<ThreadTrace> threads;
};

namespace detail {
extern std::atomic<bool> g_enabled;
struct Ring;
}  // namespace detail

/// Events each thread's ring can hold before the oldest are overwritten.
inline constexpr std::size_t kRingCapacity = 4096;

/// Hot-path check used by the TRACE_* macros: one relaxed load + branch.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Steady-clock nanoseconds since the recorder's epoch (process start).
std::uint64_t now_ns();

/// Trace id carried by events emitted from the calling thread (0 = none).
std::uint64_t current_trace_id();

/// Process-wide registry of per-thread rings and interned strings.
/// All methods are thread-safe; emit paths are lock-free after a thread's
/// first event.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Turns recording on or off (user-level switch). The effective enabled
  /// state is `user || forced`, see push_force().
  void set_enabled(bool on);

  /// Temporarily forces recording on (nestable, e.g. for a single traced
  /// service request while the global switch is off). Every push must be
  /// matched by a pop.
  void push_force();
  void pop_force();

  /// Allocates a fresh nonzero trace id (process-unique, monotonic).
  std::uint64_t next_trace_id();

  /// Names the calling thread in trace metadata (e.g. "msynth-w3").
  void set_current_thread_name(const std::string& name);

  /// Copies every ring without stopping writers. Events being written
  /// concurrently are either complete in the snapshot or absent.
  TraceSnapshot snapshot() const;

  /// Logically discards everything recorded so far; writers are not
  /// disturbed and subsequent snapshots only see newer events.
  void clear();

  /// Total events ever emitted across all rings (monotonic; includes
  /// events that have since been overwritten or cleared).
  std::uint64_t total_events() const;

  /// Records one event on the calling thread's ring. `category` and
  /// `name` should be string literals (interned by address+content).
  void emit(EventType type, const char* category, const char* name,
            std::uint64_t ts_ns, std::uint64_t dur_ns, double value);

  /// Returns the calling thread's ring lane to the free list (called from
  /// a thread_local destructor at thread exit; not for general use).
  void release_current_thread_ring();

 private:
  TraceRecorder();
  ~TraceRecorder() = delete;  // leaked singleton: thread exits may outlive main

  detail::Ring& ring_for_current_thread();
  void recompute_enabled();

  struct Impl;
  Impl* impl_;

  friend class TraceIdScope;
};

/// Sets the calling thread's current trace id for the scope's lifetime;
/// restores the previous id on exit. Nestable.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id);
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: captures the start time on construction (when enabled) and
/// records one complete span event on destruction.
class SpanGuard {
 public:
  SpanGuard(const char* category, const char* name) {
    if (enabled()) {
      category_ = category;
      name_ = name;
      start_ns_ = now_ns();
    }
  }
  ~SpanGuard() {
    if (category_ != nullptr) {
      TraceRecorder::instance().emit(EventType::kSpan, category_, name_,
                                     start_ns_, now_ns() - start_ns_, 0.0);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Records nothing at scope exit: the scope turned out not to be the
  /// event the span names.
  void dismiss() { category_ = nullptr; }

 private:
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// Helpers behind TRACE_INSTANT / TRACE_COUNTER (call only when enabled).
void emit_instant(const char* category, const char* name);
void emit_counter(const char* category, const char* name, double value);

}  // namespace fbmb::trace

#define FBMB_TRACE_CONCAT_IMPL(a, b) a##b
#define FBMB_TRACE_CONCAT(a, b) FBMB_TRACE_CONCAT_IMPL(a, b)

/// Scoped span; recorded as one complete event when the scope exits.
#define TRACE_SPAN(category, name)                                      \
  ::fbmb::trace::SpanGuard FBMB_TRACE_CONCAT(fbmb_trace_span_,          \
                                             __LINE__)((category), (name))

/// Point-in-time event.
#define TRACE_INSTANT(category, name)                    \
  do {                                                   \
    if (::fbmb::trace::enabled())                        \
      ::fbmb::trace::emit_instant((category), (name));   \
  } while (0)

/// Sampled numeric value (rendered as a counter track in Perfetto).
#define TRACE_COUNTER(category, name, value)                         \
  do {                                                               \
    if (::fbmb::trace::enabled())                                    \
      ::fbmb::trace::emit_counter((category), (name),                \
                                  static_cast<double>(value));       \
  } while (0)
