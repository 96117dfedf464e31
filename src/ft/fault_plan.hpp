// Deterministic fault plans.
//
// A FaultPlan is a declarative script of failures — "kill rank 2 at
// generation 50", "drop the 3rd fitness reply from rank 1" — parsed from
// JSON. Faults fire at exact, reproducible points (a generation number, a
// per-rule match count), never from a random clock, so a faulty run is as
// replayable as a fault-free one: the same plan against the same seed
// produces the same recovery sequence bit for bit.
//
// JSON schema ("egt.fault_plan/v1"):
//   {
//     "schema": "egt.fault_plan/v1",          // optional, validated
//     "kills":  [ {"rank": 2, "generation": 50} ],
//     "drops":  [ {"source": 1, "dest": 0, "tag": "fit",
//                  "skip": 0, "count": 1} ],
//     "delays": [ {"source": "any", "dest": 0, "tag": "plan_ack",
//                  "count": 2, "delay_ms": 40} ]
//   }
// Kills may target rank 0: the Nature Agent fails over to a warm standby
// (the engine rejects such plans only when it runs with no standby
// replicas). A "torn_checkpoints" key is rejected: the ft engine writes no
// block checkpoints, so a plan that names one would silently test nothing.
// source/dest/tag accept a number or "any"; tag also accepts the protocol
// names of ft/protocol.hpp ("plan", "fit", "pong", ...). skip lets the
// first N matching sends through before the rule starts firing; count
// bounds how many sends it affects (default 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace egt::ft {

/// Sentinel for "matches any rank" / "matches any tag".
inline constexpr int kAny = -1;

/// Rank `rank` stops participating at `generation` — a worker dies when it
/// receives the plan for that generation (before playing it), the master
/// dies at the top of its generation loop (before planning it). Either
/// way the generation's work is lost and must be recovered: what a node
/// crash looks like from the survivors' side.
struct KillFault {
  int rank = -1;
  std::uint64_t generation = 0;
};

/// One message-fault rule (drop or delay, depending on which list it is
/// in). Matches sends by (source, dest, tag), each optionally kAny.
struct MessageFault {
  int source = kAny;
  int dest = kAny;
  int tag = kAny;
  std::uint64_t skip = 0;      ///< let this many matching sends through first
  std::uint64_t count = 1;     ///< then affect this many
  std::uint64_t delay_ms = 0;  ///< delay rules only

  bool matches(int src, int dst, int t) const noexcept {
    return (source == kAny || source == src) &&
           (dest == kAny || dest == dst) && (tag == kAny || tag == t);
  }
};

class FaultPlan {
 public:
  /// Parse the JSON schema above; throws std::runtime_error with a message
  /// naming the offending field on malformed input.
  static FaultPlan parse(std::string_view json_text);
  /// Parse a plan from a file; throws std::runtime_error (missing file,
  /// malformed JSON).
  static FaultPlan from_file(const std::string& path);

  // Programmatic construction (tests, benches).
  FaultPlan& kill(int rank, std::uint64_t generation);
  FaultPlan& drop(MessageFault rule);
  FaultPlan& delay(MessageFault rule);

  /// The generation at which `rank` dies, if the plan kills it.
  std::optional<std::uint64_t> kill_generation(int rank) const noexcept;

  bool empty() const noexcept {
    return kills_.empty() && drops_.empty() && delays_.empty();
  }
  const std::vector<KillFault>& kills() const noexcept { return kills_; }
  const std::vector<MessageFault>& drops() const noexcept { return drops_; }
  const std::vector<MessageFault>& delays() const noexcept { return delays_; }

  /// Reject plans that cannot be executed on `nranks` ranks: out-of-range
  /// ranks, two kills of one rank, or kills of every rank (at least one
  /// must survive to finish the run). Kills of rank 0 are legal — the
  /// Nature Agent fails over — but the engine additionally rejects them
  /// when it runs without standby replicas. Throws std::invalid_argument.
  void validate(int nranks) const;

 private:
  std::vector<KillFault> kills_;
  std::vector<MessageFault> drops_;
  std::vector<MessageFault> delays_;
};

}  // namespace egt::ft
