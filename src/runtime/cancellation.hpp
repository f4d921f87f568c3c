// Cooperative cancellation for synthesis jobs.
//
// A CancellationToken is shared between the party that waits for a job (a
// service request handler, a draining server) and the job itself. The owner
// arms a deadline and/or calls cancel(); the synthesis flow polls the token
// between stages via SynthesisOptions::checkpoint and aborts by throwing
// SynthesisCancelled. Cancellation is cooperative: a fired token never
// interrupts a stage mid-flight, it stops the flow at the next stage
// boundary (or routing round), so no partial state ever escapes.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace fbmb {

/// Thrown by a synthesis flow when its cancellation token fired. Carries
/// why (deadline vs explicit cancel) and the stage boundary that noticed,
/// so callers can distinguish a timeout (504) from a drain/disconnect
/// cancellation (not a failure).
class SynthesisCancelled : public std::runtime_error {
 public:
  enum class Reason {
    kDeadline,   ///< the token's deadline passed
    kCancelled,  ///< cancel() was called (client gone, server draining)
  };

  SynthesisCancelled(Reason reason, std::string stage)
      : std::runtime_error(std::string(reason == Reason::kDeadline
                                           ? "deadline exceeded"
                                           : "cancelled") +
                           " at stage " + stage),
        reason_(reason),
        stage_(std::move(stage)) {}

  Reason reason() const { return reason_; }
  const std::string& stage() const { return stage_; }

 private:
  Reason reason_;
  std::string stage_;
};

/// Shared cancel/deadline flag. cancel() may be called from any thread at
/// any time; set_deadline() is normally armed once before the job starts
/// but is also safe to tighten concurrently.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Requests cooperative cancellation (sticky).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms an absolute deadline; the token reports expiry once Clock::now()
  /// passes it.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Convenience: deadline `timeout` from now. Non-positive timeouts expire
  /// immediately; a deadline past the clock's range means none.
  void set_timeout(std::chrono::nanoseconds timeout) {
    const Clock::time_point now = Clock::now();
    set_deadline(timeout >= Clock::time_point::max() - now
                     ? Clock::time_point::max()
                     : now + timeout);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool deadline_expired() const {
    const std::int64_t ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != kNoDeadline &&
           Clock::now().time_since_epoch().count() >= ns;
  }

  /// Throws SynthesisCancelled when the token fired; `stage` names the
  /// boundary for the exception message. Deadline expiry wins over an
  /// explicit cancel so a timed-out request reports 504, not 499.
  void throw_if_cancelled(const char* stage) const {
    if (deadline_expired()) {
      throw SynthesisCancelled(SynthesisCancelled::Reason::kDeadline, stage);
    }
    if (cancelled()) {
      throw SynthesisCancelled(SynthesisCancelled::Reason::kCancelled,
                               stage);
    }
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace fbmb
