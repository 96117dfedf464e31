// Trace parsing and the message-hop analysis behind tools/trace_report,
// extracted so they are unit-testable (tests/tools/trace_report_test.cpp).
//
// A message hop is the time from a send to its receipt. Comm::send stamps
// a comm.flow start ("s") inside the sender's comm.send span; the receive
// that takes the message stamps the matching end ("f") inside its
// comm.recv span (or, for a poll, outside any span). A hop splits by what
// the receiver was doing when the message was sent:
//   waiting  it already sat in a comm.recv span that covers the receipt,
//            so the hop is delivery plus wake-up;
//   busy     it was doing something else, so the hop includes the time
//            the message sat queued in its inbox.
// Waiting hops split again by the covering span's "parked" arg
// (par::Mailbox's spin-then-park wait): spun hops were caught while the
// receiver polled, parked ones paid the condition-variable wake. A
// comm.recv span without the arg (a trace from before the spin) counts as
// parked, which is what every wait then was.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace egt::trace_report {

struct Event {
  std::string name;
  std::string cat;
  std::string ph;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::uint64_t flow_id = 0;
  std::uint64_t arg = 0;
  bool has_arg = false;
  std::string arg_name;
};

struct Trace {
  std::vector<Event> events;
  std::map<std::string, std::string> meta;  // otherData (strings only)
  std::uint64_t dropped = 0;
  std::map<std::int64_t, std::string> process_names;
};

/// Parse an egt.trace/v1 Chrome trace-event document.
inline Trace parse(const std::string& json) {
  const util::JsonValue doc = util::JsonValue::parse(json);
  Trace t;
  if (const util::JsonValue* other = doc.find("otherData")) {
    for (const auto& [k, v] : other->members()) {
      if (k == "dropped_events") {
        t.dropped = v.as_u64();
      } else if (v.is_string()) {
        t.meta[k] = v.as_string();
      }
    }
  }
  for (const util::JsonValue& e : doc.at("traceEvents").items()) {
    Event ev;
    ev.ph = e.at("ph").as_string();
    ev.pid = static_cast<std::int64_t>(e.at("pid").as_u64());
    if (const util::JsonValue* name = e.find("name")) {
      ev.name = name->as_string();
    }
    if (const util::JsonValue* cat = e.find("cat")) ev.cat = cat->as_string();
    if (const util::JsonValue* ts = e.find("ts")) ev.ts_us = ts->as_number();
    if (const util::JsonValue* dur = e.find("dur")) {
      ev.dur_us = dur->as_number();
    }
    if (const util::JsonValue* tid = e.find("tid")) {
      ev.tid = static_cast<std::int64_t>(tid->as_u64());
    }
    if (const util::JsonValue* id = e.find("id")) ev.flow_id = id->as_u64();
    if (const util::JsonValue* args = e.find("args")) {
      if (ev.ph == "M") {
        if (const util::JsonValue* n = args->find("name")) {
          if (ev.name == "process_name") {
            t.process_names[ev.pid] = n->as_string();
          }
        }
      } else if (!args->members().empty()) {
        ev.arg_name = args->members().front().first;
        ev.arg = args->members().front().second.as_u64();
        ev.has_arg = true;
      }
    }
    t.events.push_back(std::move(ev));
  }
  return t;
}

/// Distribution of a set of hops, in microseconds (nearest-rank
/// quantiles; all zero when empty).
struct HopStats {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double max_us = 0.0;
};

inline HopStats hop_stats(std::vector<double> hops) {
  HopStats s;
  s.count = hops.size();
  if (hops.empty()) return s;
  std::sort(hops.begin(), hops.end());
  const auto rank = [&](double q) {
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(hops.size())));
    return hops[std::max<std::size_t>(k, 1) - 1];
  };
  s.p50_us = rank(0.5);
  s.p90_us = rank(0.9);
  s.max_us = hops.back();
  return s;
}

struct HopReport {
  HopStats all;
  HopStats waiting;  ///< receiver already in comm.recv at the send
  HopStats spun;     ///< waiting, and caught before the receiver parked
  HopStats parked;   ///< waiting, and woken from the condition variable
  HopStats busy;     ///< receiver elsewhere: the message queued
};

/// Every message whose flow has both ends (a start without an end is a
/// drop, and has no hop).
inline HopReport message_hops(const Trace& t) {
  using Thread = std::pair<std::int64_t, std::int64_t>;  // (pid, tid)
  struct Span {
    double begin, end;
    bool parked;
  };
  std::map<std::uint64_t, double> sent;  // flow id -> send time
  std::map<Thread, std::vector<Span>> recvs;
  for (const Event& e : t.events) {
    if (e.ph == "s") sent.emplace(e.flow_id, e.ts_us);
    if (e.ph == "X" && e.name == "comm.recv") {
      const bool parked =
          !(e.has_arg && e.arg_name == "parked") || e.arg != 0;
      recvs[{e.pid, e.tid}].push_back({e.ts_us, e.ts_us + e.dur_us, parked});
    }
  }
  // One thread's receives never overlap: sorted by begin, the span that
  // covers a receipt is the last one to begin at or before it.
  for (auto& [thread, spans] : recvs) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin < b.begin;
    });
  }
  std::vector<double> all, waiting, spun, parked, busy;
  for (const Event& e : t.events) {
    if (e.ph != "f") continue;
    const auto start = sent.find(e.flow_id);
    if (start == sent.end()) continue;
    const double hop = e.ts_us - start->second;
    all.push_back(hop);
    const Span* cover = nullptr;  // the receive that was already waiting
    if (const auto it = recvs.find({e.pid, e.tid}); it != recvs.end()) {
      const auto& spans = it->second;
      const auto after = std::upper_bound(
          spans.begin(), spans.end(), e.ts_us,
          [](double ts, const Span& s) { return ts < s.begin; });
      if (after != spans.begin()) {
        const Span& last = *(after - 1);
        if (e.ts_us <= last.end && last.begin <= start->second) cover = &last;
      }
    }
    if (cover == nullptr) {
      busy.push_back(hop);
      continue;
    }
    waiting.push_back(hop);
    (cover->parked ? parked : spun).push_back(hop);
  }
  return {hop_stats(std::move(all)),    hop_stats(std::move(waiting)),
          hop_stats(std::move(spun)),   hop_stats(std::move(parked)),
          hop_stats(std::move(busy))};
}

}  // namespace egt::trace_report
