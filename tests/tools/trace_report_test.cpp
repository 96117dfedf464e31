// trace_report's message-hop histogram: known flows on a synthetic trace,
// then a real parallel run whose every message pairs up.
#include "trace_report_lib.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_engine.hpp"
#include "obs/tracer.hpp"

namespace egt::trace_report {
namespace {

std::string span(int pid, int tid, const char* name, double ts, double dur) {
  std::ostringstream os;
  os << R"({"ph":"X","name":")" << name << R"(","cat":"comm","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"ts":)" << ts << R"(,"dur":)" << dur
     << "}";
  return os.str();
}

// A comm.recv span carrying the mailbox's "parked" arg.
std::string recv(int pid, int tid, double ts, double dur, int parked) {
  std::ostringstream os;
  os << R"({"ph":"X","name":"comm.recv","cat":"comm","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"ts":)" << ts << R"(,"dur":)" << dur
     << R"(,"args":{"parked":)" << parked << "}}";
  return os.str();
}

std::string flow(const char* ph, int pid, int tid, std::uint64_t id,
                 double ts) {
  std::ostringstream os;
  os << R"({"ph":")" << ph << R"(","name":"msg","cat":"comm","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"ts":)" << ts << R"(,"id":)" << id << "}";
  return os.str();
}

std::string trace_json(const std::vector<std::string>& events) {
  std::string json = R"({"traceEvents":[)";
  const char* sep = "";
  for (const std::string& e : events) {
    json += sep;
    json += e;
    sep = ",";
  }
  json += R"(],"otherData":{"schema":"egt.trace/v1","dropped_events":0}})";
  return json;
}

TEST(TraceReport, MessageHopsSplitByWhatTheReceiverWasDoing) {
  const std::vector<std::string> events = {
      // Rank 1 waits in comm.recv from 100 to 150; flow 1 is sent at 120
      // and received at 130: waiting, 10 us.
      span(1, 11, "comm.recv", 100, 50),
      flow("s", 0, 10, 1, 120),
      flow("f", 1, 11, 1, 130),
      // Flow 2 is sent at 200, before rank 1's next receive begins (210):
      // busy, 12 us. Another thread's receive covering it does not count.
      span(1, 99, "comm.recv", 0, 1000),
      span(1, 11, "comm.recv", 210, 5),
      flow("s", 0, 10, 2, 200),
      flow("f", 1, 11, 2, 212),
      // Flow 3 is taken by a poll, outside any receive: busy, 40 us.
      flow("s", 0, 10, 3, 300),
      flow("f", 2, 12, 3, 340),
      // Flow 4 was dropped: a start without an end has no hop.
      flow("s", 0, 10, 4, 400),
      // Flow 5: rank 2 waits from 490 to 520, sent 500, received 503.
      span(2, 12, "comm.recv", 490, 30),
      flow("s", 0, 10, 5, 500),
      flow("f", 2, 12, 5, 503),
      // An end without a start is ignored too.
      flow("f", 2, 12, 6, 600),
  };
  const HopReport r = message_hops(parse(trace_json(events)));
  EXPECT_EQ(r.all.count, 4u);  // hops 3, 10, 12, 40
  EXPECT_EQ(r.all.p50_us, 10.0);
  EXPECT_EQ(r.all.p90_us, 40.0);
  EXPECT_EQ(r.all.max_us, 40.0);
  EXPECT_EQ(r.waiting.count, 2u);  // 3, 10
  EXPECT_EQ(r.waiting.p50_us, 3.0);
  EXPECT_EQ(r.waiting.p90_us, 10.0);
  EXPECT_EQ(r.waiting.max_us, 10.0);
  EXPECT_EQ(r.busy.count, 2u);  // 12, 40
  EXPECT_EQ(r.busy.p50_us, 12.0);
  EXPECT_EQ(r.busy.p90_us, 40.0);
  EXPECT_EQ(r.busy.max_us, 40.0);
  // Receives without a "parked" arg predate the spin: every wait parked.
  EXPECT_EQ(r.parked.count, 2u);
  EXPECT_EQ(r.spun.count, 0u);
}

TEST(TraceReport, WaitingHopsSplitBySpunAndParked) {
  const std::vector<std::string> events = {
      // Rank 1 catches flow 1 while spinning: sent 100, received 102.
      recv(1, 11, 99, 4, /*parked=*/0),
      flow("s", 0, 10, 1, 100),
      flow("f", 1, 11, 1, 102),
      // Rank 1 parks for flow 2: sent 200, woken at 209.
      recv(1, 11, 150, 60, /*parked=*/1),
      flow("s", 0, 10, 2, 200),
      flow("f", 1, 11, 2, 209),
      // Rank 2 spins for flow 3: sent 300, received 301.
      recv(2, 12, 299, 3, /*parked=*/0),
      flow("s", 0, 10, 3, 300),
      flow("f", 2, 12, 3, 301),
      // Flow 4 was queued before rank 2's receive began: busy however
      // that receive ended, even though it did not park.
      flow("s", 0, 10, 4, 400),
      recv(2, 12, 410, 1, /*parked=*/0),
      flow("f", 2, 12, 4, 410.5),
  };
  const HopReport r = message_hops(parse(trace_json(events)));
  EXPECT_EQ(r.all.count, 4u);
  EXPECT_EQ(r.waiting.count, 3u);  // 1, 2, 9
  EXPECT_EQ(r.spun.count, 2u);     // 1, 2
  EXPECT_EQ(r.spun.p50_us, 1.0);
  EXPECT_EQ(r.spun.max_us, 2.0);
  EXPECT_EQ(r.parked.count, 1u);   // 9
  EXPECT_EQ(r.parked.p50_us, 9.0);
  EXPECT_EQ(r.busy.count, 1u);     // 10.5
  EXPECT_EQ(r.busy.p50_us, 10.5);
}

TEST(TraceReport, EmptyHopSetReadsZero) {
  const HopStats s = hop_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50_us, 0.0);
  EXPECT_EQ(s.max_us, 0.0);
}

TEST(TraceReport, EveryMessageOfAParallelRunHasAHop) {
  core::SimConfig cfg;
  cfg.ssets = 12;
  cfg.generations = 20;
  cfg.fitness_mode = core::FitnessMode::Analytic;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const auto result = core::run_parallel(cfg, 3);
  tracer.stop();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.clear();
  const Trace t = parse(os.str());
  ASSERT_EQ(t.dropped, 0u);
  const HopReport r = message_hops(t);
  EXPECT_EQ(r.all.count, result.traffic.messages);
  EXPECT_EQ(r.waiting.count + r.busy.count, r.all.count);
  EXPECT_EQ(r.spun.count + r.parked.count, r.waiting.count);
  EXPECT_GE(r.all.p50_us, 0.0);
  EXPECT_LE(r.all.p90_us, r.all.max_us);
}

}  // namespace
}  // namespace egt::trace_report
