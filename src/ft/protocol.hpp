// Message tags of the fault-tolerant engine's master-driven protocol.
//
// The ft engine deliberately avoids tree collectives: a binomial broadcast
// or dissemination barrier routed through a dead rank hangs forever. All
// coordination is point-to-point between the Nature Agent (the *master* —
// rank 0 at launch, but any rank after a failover) and each worker, so a
// silent rank stalls only the master's deadline receive, never a relay
// chain. The cost is O(P) messages per generation instead of O(log P);
// DESIGN.md §Fault tolerance discusses the tradeoff.
//
// Failover (PR 3) adds a second tag family: the master streams each
// generation's decision record to warm standbys (kLogAppend/kLogAck)
// before broadcasting the decisions, and when the master falls silent the
// survivors elect a replacement (kElect), which announces itself with
// kTakeover and collects kTakeoverAck. kEvicted turns a falsely-declared-
// dead rank passive; kAbort is the unrecoverable-state broadcast that
// makes every rank throw instead of deadlocking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/generation.hpp"

namespace egt::ft::tag {

// Master -> worker.
inline constexpr int kPlan = 0x1001;      ///< generation plan (+ prev decision)
inline constexpr int kReqFit = 0x1003;    ///< request one SSet's fitness
inline constexpr int kDecide = 0x1005;    ///< adoption / Moran outcome
inline constexpr int kPing = 0x1006;      ///< heartbeat probe
inline constexpr int kReconfig = 0x1008;  ///< new ownership table after a death
inline constexpr int kReqBlocks = 0x100a; ///< request all owned fitness blocks
inline constexpr int kStop = 0x100c;      ///< run over: send final snapshot
inline constexpr int kBye = 0x100e;       ///< release: worker thread may exit

// Worker -> master.
inline constexpr int kPlanAck = 0x1002;   ///< plan processed (doubles as heartbeat)
inline constexpr int kFit = 0x1004;       ///< fitness reply
inline constexpr int kPong = 0x1007;      ///< heartbeat reply
inline constexpr int kReconfigAck = 0x1009;
inline constexpr int kBlocks = 0x100b;    ///< owned fitness blocks reply
inline constexpr int kFinal = 0x100d;     ///< final snapshot reply

// Failover: decision-log replication and master election.
inline constexpr int kLogAppend = 0x100f;    ///< master -> standby: log record
inline constexpr int kLogAck = 0x1010;       ///< standby -> master: record ack
inline constexpr int kElect = 0x1011;        ///< any -> all: vote (view, log head)
inline constexpr int kTakeover = 0x1012;     ///< new master -> all: I am master
inline constexpr int kTakeoverAck = 0x1013;  ///< worker -> new master
inline constexpr int kEvicted = 0x1014;      ///< master -> zombie: go passive
inline constexpr int kAbort = 0x1015;        ///< any -> all: unrecoverable, throw

/// Fault-plan JSON names a tag symbolically ("fit", "plan_ack", ...).
/// Returns -1 ("any") for "any"; throws std::runtime_error on unknown
/// names (defined in fault_plan.cpp).
int from_name(std::string_view name);

}  // namespace egt::ft::tag

namespace egt::ft {

// -- the two messages that carry a payoff row ---------------------------------
//
// An adoption makes the learner a copy of its teacher, so the learner's
// payoff row is the teacher's (core::BlockFitness::SourceRow). When the two
// live on different ranks, the teacher's FIT carries its row and the
// master forwards it on the learner owner's DECIDE. A row field is a u32
// length, 0 (no row) or exactly `ssets`, then that many doubles. Decoders
// throw CheckpointError on truncation, any other length, or trailing bytes.

/// FIT: u64 request id, f64 fitness, row.
struct FitReply {
  std::uint64_t req = 0;
  double fitness = 0.0;
  std::vector<double> row;
};
std::vector<std::byte> encode_fit(std::uint64_t req, double fitness,
                                  std::span<const double> row);
FitReply decode_fit(const std::vector<std::byte>& in, std::uint32_t ssets);

/// PC-stage decide (adoption only) vs final-stage decide (moran + done).
enum class DecideStage : std::uint8_t { Pc = 0, Final = 1 };

/// DECIDE: u64 generation, u8 stage, the decision (core::wire::put_decision),
/// row — the teacher's, on the copy an adoption's learner owner receives.
struct DecideMsg {
  DecideStage stage = DecideStage::Pc;
  core::GenerationDecision decision;
  std::vector<double> row;
};
std::vector<std::byte> encode_decide(DecideStage stage,
                                     const core::GenerationDecision& d,
                                     std::span<const double> row);
DecideMsg decode_decide(const std::vector<std::byte>& in, std::uint32_t ssets);

}  // namespace egt::ft
