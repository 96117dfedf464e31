#include "obs/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace egt::obs {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Session epoch and flow ids are statics (not Impl members) so the record
// fast path never takes the registration mutex.
std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<std::uint64_t> g_flow_id{0};
std::atomic<std::uint64_t> g_session{0};

struct Slab {
  explicit Slab(std::size_t capacity_, std::uint32_t tid_,
                std::uint64_t session_, const char* name)
      : events(std::allocator<TraceEvent>().allocate(capacity_)),
        capacity(capacity_),
        tid(tid_),
        session(session_),
        thread_name(name) {}
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() { std::allocator<TraceEvent>().deallocate(events, capacity); }

  /// Ring storage, allocated but never initialized: a slot is constructed
  /// by the first event stored in it, so the thread's first event does not
  /// fault in the whole ring (18 MB at 2^18 events) and a session touches
  /// only the pages it records into.
  TraceEvent* events;
  std::size_t capacity;
  std::atomic<std::uint64_t> count{0};  ///< events ever recorded
  std::uint32_t tid;
  std::uint64_t session;
  const char* thread_name;  ///< static string

  std::uint64_t kept() const noexcept {
    const auto n = count.load(std::memory_order_acquire);
    return std::min<std::uint64_t>(n, capacity);
  }
  std::uint64_t dropped() const noexcept {
    const auto n = count.load(std::memory_order_acquire);
    return n > capacity ? n - capacity : 0;
  }
};

struct ThreadState {
  Slab* slab = nullptr;
  std::uint64_t session = 0;
  int pid = 0;
  const char* name = "thread";
};

ThreadState& tls() noexcept {
  thread_local ThreadState state;
  return state;
}

}  // namespace

struct Tracer::Impl {
  mutable std::mutex mu;
  std::size_t capacity = Tracer::kDefaultCapacity;
  std::vector<std::unique_ptr<Slab>> slabs;    ///< current session
  std::vector<std::unique_ptr<Slab>> retired;  ///< prior sessions (writes
                                               ///< from stragglers land
                                               ///< here harmlessly)
  std::map<std::string, std::string> meta;

  Slab* attach(const char* name) {
    std::lock_guard<std::mutex> lock(mu);
    const auto tid = static_cast<std::uint32_t>(slabs.size() + 1);
    slabs.push_back(std::make_unique<Slab>(
        capacity, tid, g_session.load(std::memory_order_relaxed), name));
    return slabs.back().get();
  }
};

std::atomic<bool> Tracer::enabled_{false};

Tracer& Tracer::instance() {
  // Leaky: pool workers (static-lifetime threads) may record at exit.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Impl& Tracer::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

void Tracer::start(std::size_t events_per_thread) {
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.capacity = std::max<std::size_t>(events_per_thread, 8);
    for (auto& s : im.slabs) im.retired.push_back(std::move(s));
    im.slabs.clear();
  }
  g_session.fetch_add(1, std::memory_order_relaxed);
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.slabs.clear();
  im.retired.clear();
  im.meta.clear();
  g_session.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::set_meta(const std::string& key, const std::string& value) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.meta[key] = value;
}

std::uint64_t Tracer::dropped_events() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::uint64_t total = 0;
  for (const auto& s : im.slabs) total += s->dropped();
  return total;
}

std::uint64_t Tracer::recorded_events() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::uint64_t total = 0;
  for (const auto& s : im.slabs) total += s->kept();
  return total;
}

std::int64_t Tracer::now_ns() noexcept {
  return steady_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::new_flow_id() noexcept {
  if (!enabled()) return 0;
  return g_flow_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

int Tracer::current_pid() noexcept { return tls().pid; }

void Tracer::set_current_pid(int pid) noexcept { tls().pid = pid; }

void Tracer::set_thread_name(const char* name) noexcept {
  ThreadState& state = tls();
  state.name = name;
  if (state.slab != nullptr) state.slab->thread_name = name;
}

void Tracer::record(TraceEvent ev) noexcept {
  if (!enabled()) return;
  ThreadState& state = tls();
  const auto session = g_session.load(std::memory_order_relaxed);
  if (state.slab == nullptr || state.session != session) {
    state.slab = instance().impl().attach(state.name);
    state.session = session;
  }
  Slab& slab = *state.slab;
  ev.pid = state.pid;
  ev.tid = slab.tid;
  // Single-writer ring: the slot store needs no atomicity, the count
  // release-store publishes it to the (post-quiesce) serializer.
  const auto n = slab.count.load(std::memory_order_relaxed);
  std::construct_at(slab.events + n % slab.capacity, ev);
  slab.count.store(n + 1, std::memory_order_release);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  Impl& im = impl();
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, const char*> thread_names;
  std::uint64_t dropped = 0;
  std::map<std::string, std::string> meta;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    std::uint64_t total_kept = 0;
    for (const auto& s : im.slabs) total_kept += s->kept();
    events.reserve(total_kept);
    for (const auto& s : im.slabs) {
      const auto n = s->count.load(std::memory_order_acquire);
      const auto cap = static_cast<std::uint64_t>(s->capacity);
      const auto kept = std::min(n, cap);
      for (std::uint64_t i = n - kept; i < n; ++i) {
        events.push_back(s->events[static_cast<std::size_t>(i % cap)]);
      }
      dropped += s->dropped();
      thread_names[s->tid] = s->thread_name;
    }
    meta = im.meta;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  // Rows of the timeline: every (pid, tid) pair that recorded.
  std::set<std::pair<std::int32_t, std::uint32_t>> rows;
  for (const auto& ev : events) rows.insert({ev.pid, ev.tid});

  util::JsonWriter w(os, 0);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Metadata first: process (rank) and thread display names.
  std::set<std::int32_t> pids;
  for (const auto& [pid, tid] : rows) pids.insert(pid);
  for (const auto pid : pids) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "process_name");
    w.field("pid", static_cast<std::int64_t>(pid));
    w.field("tid", 0);
    w.key("args").begin_object();
    w.field("name", pid == kPoolPid ? std::string("pool")
                                    : "rank " + std::to_string(pid));
    w.end_object();
    w.end_object();
  }
  for (const auto& [pid, tid] : rows) {
    const auto it = thread_names.find(tid);
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "thread_name");
    w.field("pid", static_cast<std::int64_t>(pid));
    w.field("tid", static_cast<std::uint64_t>(tid));
    w.key("args").begin_object();
    w.field("name", it != thread_names.end() ? it->second : "thread");
    w.end_object();
    w.end_object();
  }

  for (const auto& ev : events) {
    w.begin_object();
    w.field("name", ev.name != nullptr ? ev.name : "?");
    w.field("cat", ev.cat != nullptr ? ev.cat : "misc");
    w.field("pid", static_cast<std::int64_t>(ev.pid));
    w.field("tid", static_cast<std::uint64_t>(ev.tid));
    w.field("ts", static_cast<double>(ev.ts_ns) / 1000.0);
    switch (ev.kind) {
      case TraceEvent::Kind::Span:
        w.field("ph", "X");
        w.field("dur", static_cast<double>(ev.dur_ns) / 1000.0);
        break;
      case TraceEvent::Kind::Instant:
        w.field("ph", "i");
        w.field("s", "t");
        break;
      case TraceEvent::Kind::FlowStart:
        w.field("ph", "s");
        w.field("id", ev.flow_id);
        break;
      case TraceEvent::Kind::FlowEnd:
        w.field("ph", "f");
        w.field("bp", "e");
        w.field("id", ev.flow_id);
        break;
    }
    if (ev.arg_name != nullptr) {
      w.key("args").begin_object();
      w.field(ev.arg_name, ev.arg);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("otherData").begin_object();
  w.field("schema", "egt.trace/v1");
  w.field("dropped_events", dropped);
  for (const auto& [key, value] : meta) w.field(key, value);
  w.end_object();

  w.end_object();
  os << "\n";
}

}  // namespace egt::obs
