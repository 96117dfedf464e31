// Flight recorder: a low-overhead tracing layer recording timestamped
// span / instant / flow events into per-thread ring buffers, serialized to
// Chrome trace-event JSON (Perfetto / chrome://tracing loadable).
//
// Design constraints (same discipline as obs/metrics.hpp — the recorder
// must not perturb what it records):
//   * disabled is the default and costs one relaxed-ish atomic load + a
//     predictable branch per call site (TraceSpan holds no state and
//     records nothing when the tracer is off);
//   * the record path is lock-free: each thread owns a fixed-capacity
//     ring-buffer slab (single writer), so recording is two clock reads
//     and a handful of plain stores — no allocation, no contention;
//   * a full slab wraps around: the newest events win, and the number of
//     overwritten (dropped) events is reported in the serialized trace
//     (otherData.dropped_events), never silently lost;
//   * event names/categories must be string literals (or otherwise
//     outlive the tracer session) — the slab stores the pointer only.
//
// Attribution: Chrome's pid is the EGT rank (TraceRankScope, default 0 so
// the serial engine needs no setup), tid is the recording thread. The
// shared agent-tier ThreadPool records under the pseudo-rank kPoolPid so
// worker activity is visible without being misattributed to a rank.
//
// Lifecycle: Tracer::instance().start() enables recording; stop() disables
// it; write_chrome_trace() serializes after every traced thread has
// quiesced (engines joined / parallel_for returned). This layer depends
// only on egt_util so the par runtime can link it (egt_tracer in CMake).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace egt::obs {

/// Pseudo-rank (Chrome pid) of shared ThreadPool workers.
inline constexpr int kPoolPid = 999;

/// Event categories (Chrome "cat"). Static strings by contract.
inline constexpr const char* kCatEngine = "engine";
inline constexpr const char* kCatPhase = "phase";
inline constexpr const char* kCatComm = "comm";
inline constexpr const char* kCatFt = "ft";
inline constexpr const char* kCatPool = "pool";

/// Well-known span names shared between recording sites and trace_report.
inline constexpr const char* kGenerationSpan = "generation";
inline constexpr const char* kCommSend = "comm.send";
inline constexpr const char* kCommBcastSend = "comm.bcast_send";
inline constexpr const char* kCommRecv = "comm.recv";
inline constexpr const char* kCommFlow = "msg";
inline constexpr const char* kPoolChunk = "pool.chunk";

/// One recorded event. Plain data; sized to keep slabs cache-friendly.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    Span,       ///< Chrome "X" (complete: ts + dur)
    Instant,    ///< Chrome "i"
    FlowStart,  ///< Chrome "s" (flow arrow tail, matched by flow_id)
    FlowEnd,    ///< Chrome "f" (flow arrow head)
  };

  std::int64_t ts_ns = 0;   ///< since session epoch
  std::int64_t dur_ns = 0;  ///< spans only
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name = nullptr;  ///< null = no args object
  std::uint64_t arg = 0;
  std::uint64_t flow_id = 0;  ///< flow events only
  std::int32_t pid = 0;
  std::uint32_t tid = 0;
  Kind kind = Kind::Instant;
};

class Tracer {
 public:
  /// Events each thread's ring holds before wrapping (~64 B per event).
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The process-wide recorder (leaky singleton: outlives pool workers).
  static Tracer& instance();

  /// True between start() and stop(). The per-call-site fast path.
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Begin a recording session: resets the epoch, forgets previous slabs.
  /// Threads (re)attach a fresh slab on their first record.
  void start(std::size_t events_per_thread = kDefaultCapacity);

  /// Disable recording. Events already in slabs stay serializable.
  void stop();

  /// Drop every recorded event and metadata entry (does not stop()).
  void clear();

  /// Key/value metadata serialized into otherData (config summary,
  /// calibration inputs for trace_report --calibrate, ...).
  void set_meta(const std::string& key, const std::string& value);

  /// Events overwritten by ring wrap-around, over all slabs this session.
  std::uint64_t dropped_events() const;
  /// Events currently held (after wrap: capacity per full slab).
  std::uint64_t recorded_events() const;

  /// Serialize the session as Chrome trace-event JSON. Call only after
  /// every traced thread has quiesced (joined or returned).
  void write_chrome_trace(std::ostream& os) const;

  // -- record path (static: one TLS lookup, no instance indirection) ---------

  /// Append one event to the calling thread's slab. No-op when disabled.
  static void record(TraceEvent ev) noexcept;

  /// Nanoseconds since the session epoch (steady clock).
  static std::int64_t now_ns() noexcept;

  /// Fresh process-unique flow id (0 when disabled = "no flow").
  static std::uint64_t new_flow_id() noexcept;

  /// Rank attribution of the calling thread (Chrome pid). Cheap TLS.
  static int current_pid() noexcept;
  static void set_current_pid(int pid) noexcept;

  /// Display name of the calling thread's timeline row. Must be a static
  /// string; applies to the slab the thread attaches (or has attached).
  static void set_thread_name(const char* name) noexcept;

 private:
  Tracer() = default;
  struct Impl;
  Impl& impl() const;

  static std::atomic<bool> enabled_;
};

/// RAII span: one Chrome complete ("X") event recorded at scope exit.
/// Recording the pair as a single event keeps spans well-formed even when
/// the ring wraps (no dangling begin/end halves).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = kCatEngine) {
    if (Tracer::enabled()) {
      name_ = name;
      cat_ = cat;
      start_ns_ = Tracer::now_ns();
    }
  }
  TraceSpan(const char* name, const char* cat, const char* arg_name,
            std::uint64_t arg)
      : TraceSpan(name, cat) {
    arg_name_ = arg_name;
    arg_ = arg;
  }
  /// A span starting at `start_ns`, a Tracer::now_ns() reading the caller
  /// also uses elsewhere (see core::PhaseScope).
  TraceSpan(const char* name, const char* cat, std::int64_t start_ns) {
    if (Tracer::enabled()) {
      name_ = name;
      cat_ = cat;
      start_ns_ = start_ns;
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { finish(); }

  /// Attach/overwrite the span's numeric argument (e.g. a work count
  /// known only at scope exit). No-op on a disabled span.
  void set_arg(const char* arg_name, std::uint64_t arg) noexcept {
    if (name_ == nullptr) return;
    arg_name_ = arg_name;
    arg_ = arg;
  }

  /// Record now instead of at scope exit. Idempotent.
  void finish() noexcept {
    if (name_ != nullptr) finish(Tracer::now_ns());
  }

  /// Record with the end time `end_ns` (a Tracer::now_ns() reading).
  /// Idempotent.
  void finish(std::int64_t end_ns) noexcept {
    if (name_ == nullptr) return;
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Span;
    ev.ts_ns = start_ns_;
    ev.dur_ns = end_ns - start_ns_;
    ev.name = name_;
    ev.cat = cat_;
    ev.arg_name = arg_name_;
    ev.arg = arg_;
    Tracer::record(ev);
    name_ = nullptr;
  }

 private:
  const char* name_ = nullptr;  ///< null = disabled / already finished
  const char* cat_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Record an instant event ("i") at the current time.
inline void trace_instant(const char* name, const char* cat,
                          const char* arg_name = nullptr,
                          std::uint64_t arg = 0) noexcept {
  if (!Tracer::enabled()) return;
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::Instant;
  ev.ts_ns = Tracer::now_ns();
  ev.name = name;
  ev.cat = cat;
  ev.arg_name = arg_name;
  ev.arg = arg;
  Tracer::record(ev);
}

/// Flow arrow tail / head (matched by id; both ends use kCommFlow so
/// Chrome pairs them). 0 ids are ignored — a message sent while tracing
/// was off carries no flow.
inline void trace_flow_start(std::uint64_t flow_id) noexcept {
  if (flow_id == 0 || !Tracer::enabled()) return;
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::FlowStart;
  ev.ts_ns = Tracer::now_ns();
  ev.name = kCommFlow;
  ev.cat = kCatComm;
  ev.flow_id = flow_id;
  Tracer::record(ev);
}

inline void trace_flow_end(std::uint64_t flow_id) noexcept {
  if (flow_id == 0 || !Tracer::enabled()) return;
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::FlowEnd;
  ev.ts_ns = Tracer::now_ns();
  ev.name = kCommFlow;
  ev.cat = kCatComm;
  ev.flow_id = flow_id;
  Tracer::record(ev);
}

/// Scoped rank attribution: events recorded by this thread inside the
/// scope carry `pid`. Rank threads install it at rank entry; the shared
/// pool installs kPoolPid for its workers' lifetime.
class TraceRankScope {
 public:
  explicit TraceRankScope(int pid) : prev_(Tracer::current_pid()) {
    Tracer::set_current_pid(pid);
  }
  TraceRankScope(const TraceRankScope&) = delete;
  TraceRankScope& operator=(const TraceRankScope&) = delete;
  ~TraceRankScope() { Tracer::set_current_pid(prev_); }

 private:
  int prev_;
};

}  // namespace egt::obs
