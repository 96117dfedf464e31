// Per-rank inbox of the mini message-passing runtime.
//
// Mirrors the matching semantics of MPI point-to-point: a receive names a
// source rank and a tag (or wildcards) and blocks until a matching message
// arrives. Message order between one (source, tag) pair is preserved.
//
// A blocking receive that finds nothing waits in three steps: spin, yield,
// park. It first polls a delivery sequence number for kSpinBudget — `pause`
// between polls, std::this_thread::yield() between bursts of polls — and
// only then sleeps on the condition variable until a delivery wakes it.
// The futex wake of a parked receiver costs ~9 µs per hop (p50, 4-vCPU
// x86-64 VM), and the ft protocol's generation is ~7 sequential hops
// (PLAN→ACK, REQ_FIT→FIT, LOG_APPEND→LOG_ACK), so a receiver that catches
// the message while still spinning takes ~1.3 µs instead. 50 µs covers the
// waiting hops of a traced ft run; a longer wait (a rank busy with game
// play, a heartbeat silence) parks and costs no CPU. The yield keeps an
// oversubscribed host (ranks sharing one CPU) working: the sender the
// spinner waits for gets the CPU.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace egt::par {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// How long a blocking receive polls for a delivery before it parks.
inline constexpr std::chrono::microseconds kSpinBudget{50};

struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  /// Flow-event id stamped by Comm::send when the flight recorder is on
  /// (obs/tracer.hpp); 0 = untraced. Links the send's "s" event to the
  /// receive's "f" event so Perfetto draws the message arrow.
  std::uint64_t trace_id = 0;
};

class Mailbox {
 public:
  /// Deliver a message (called by the sending rank's thread).
  void deliver(Message msg);

  /// Block until a message matching (source, tag) is available and remove
  /// it. kAnySource / kAnyTag act as wildcards. `parked`, when given, is
  /// set to whether the receive slept on the condition variable (false:
  /// the message was queued already or arrived during the spin).
  Message receive(int source, int tag, bool* parked = nullptr);

  /// Deadline variant: wait at most `timeout` for a matching message,
  /// spin included. Returns std::nullopt on timeout. The failure-detection
  /// primitive of the ft layer: a Nature Agent that stops hearing from a
  /// rank uses the timeout to suspect it.
  std::optional<Message> receive_for(int source, int tag,
                                     std::chrono::nanoseconds timeout,
                                     bool* parked = nullptr);

  /// Non-blocking variant; returns false if nothing matches right now.
  bool try_receive(int source, int tag, Message& out);

  /// Messages currently queued (diagnostics / tests).
  std::size_t pending() const;

 private:
  bool match_locked(int source, int tag, Message& out);
  /// Match under `lock`, else spin until `until` for a matching delivery.
  /// Returns with `lock` held either way.
  bool match_or_spin(std::unique_lock<std::mutex>& lock, int source, int tag,
                     Message& out, std::chrono::steady_clock::time_point until);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  /// Bumped by every deliver() under mutex_; spinning receivers poll it
  /// without the lock and take the lock only when it moves.
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace egt::par
