#include "ft/fault_plan.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ft/protocol.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace egt::ft {

namespace tag {

int from_name(std::string_view name) {
  if (name == "any") return kAny;
  if (name == "plan") return kPlan;
  if (name == "plan_ack") return kPlanAck;
  if (name == "req_fit") return kReqFit;
  if (name == "fit") return kFit;
  if (name == "decide") return kDecide;
  if (name == "ping") return kPing;
  if (name == "pong") return kPong;
  if (name == "reconfig") return kReconfig;
  if (name == "reconfig_ack") return kReconfigAck;
  if (name == "req_blocks") return kReqBlocks;
  if (name == "blocks") return kBlocks;
  if (name == "bye") return kBye;
  if (name == "log_append") return kLogAppend;
  if (name == "log_ack") return kLogAck;
  if (name == "elect") return kElect;
  if (name == "takeover") return kTakeover;
  if (name == "takeover_ack") return kTakeoverAck;
  if (name == "evicted") return kEvicted;
  if (name == "abort") return kAbort;
  throw std::runtime_error("fault plan: unknown message tag \"" +
                           std::string(name) + "\"");
}

}  // namespace tag

namespace {

int parse_rank(const util::JsonValue& obj, const std::string& key) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return kAny;
  if (v->is_string()) {
    if (v->as_string() == "any") return kAny;
    throw std::runtime_error("fault plan: \"" + key +
                             "\" must be a rank number or \"any\"");
  }
  return static_cast<int>(v->as_u64());
}

int parse_tag(const util::JsonValue& obj) {
  const util::JsonValue* v = obj.find("tag");
  if (v == nullptr) return kAny;
  if (v->is_string()) return tag::from_name(v->as_string());
  return static_cast<int>(v->as_u64());
}

std::uint64_t parse_u64(const util::JsonValue& obj, const std::string& key,
                        std::uint64_t fallback) {
  const util::JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->as_u64();
}

MessageFault parse_rule(const util::JsonValue& obj, bool is_delay) {
  if (!obj.is_object()) {
    throw std::runtime_error("fault plan: message-fault rules must be objects");
  }
  MessageFault rule;
  rule.source = parse_rank(obj, "source");
  rule.dest = parse_rank(obj, "dest");
  rule.tag = parse_tag(obj);
  rule.skip = parse_u64(obj, "skip", 0);
  rule.count = parse_u64(obj, "count", 1);
  if (is_delay) {
    rule.delay_ms = parse_u64(obj, "delay_ms", 10);
  } else if (obj.has("delay_ms")) {
    throw std::runtime_error(
        "fault plan: \"delay_ms\" only applies to \"delays\" rules");
  }
  return rule;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view json_text) {
  const util::JsonValue doc = util::JsonValue::parse(json_text);
  if (!doc.is_object()) {
    throw std::runtime_error("fault plan: document must be a JSON object");
  }
  if (const util::JsonValue* schema = doc.find("schema")) {
    if (schema->as_string() != "egt.fault_plan/v1") {
      throw std::runtime_error("fault plan: unsupported schema \"" +
                               schema->as_string() +
                               "\" (this build reads egt.fault_plan/v1)");
    }
  }
  FaultPlan plan;
  if (const util::JsonValue* kills = doc.find("kills")) {
    for (const util::JsonValue& k : kills->items()) {
      if (!k.is_object() || !k.has("rank") || !k.has("generation")) {
        throw std::runtime_error(
            "fault plan: each kill needs \"rank\" and \"generation\"");
      }
      plan.kill(static_cast<int>(k.at("rank").as_u64()),
                k.at("generation").as_u64());
    }
  }
  if (const util::JsonValue* drops = doc.find("drops")) {
    for (const util::JsonValue& d : drops->items()) {
      plan.drop(parse_rule(d, /*is_delay=*/false));
    }
  }
  if (const util::JsonValue* delays = doc.find("delays")) {
    for (const util::JsonValue& d : delays->items()) {
      plan.delay(parse_rule(d, /*is_delay=*/true));
    }
  }
  if (doc.has("torn_checkpoints")) {
    throw std::runtime_error(
        "fault plan: \"torn_checkpoints\" is no longer supported: the ft "
        "engine writes no block checkpoints (recovery recomputes every "
        "block), so there is nothing to tear");
  }
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("fault plan: cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " (in " + path + ")");
  }
}

FaultPlan& FaultPlan::kill(int rank, std::uint64_t generation) {
  kills_.push_back({rank, generation});
  return *this;
}

FaultPlan& FaultPlan::drop(MessageFault rule) {
  rule.delay_ms = 0;
  drops_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::delay(MessageFault rule) {
  delays_.push_back(rule);
  return *this;
}

std::optional<std::uint64_t> FaultPlan::kill_generation(
    int rank) const noexcept {
  for (const KillFault& k : kills_) {
    if (k.rank == rank) return k.generation;
  }
  return std::nullopt;
}

void FaultPlan::validate(int nranks) const {
  EGT_REQUIRE_MSG(kills_.size() < static_cast<std::size_t>(nranks),
                  "fault plan: at least one rank must survive the plan");
  for (const KillFault& k : kills_) {
    EGT_REQUIRE_MSG(k.rank >= 0 && k.rank < nranks,
                    "fault plan: kill rank out of range");
    for (const KillFault& other : kills_) {
      EGT_REQUIRE_MSG(&k == &other || k.rank != other.rank,
                      "fault plan: rank killed twice");
    }
  }
  auto check_rule = [&](const MessageFault& r) {
    EGT_REQUIRE_MSG(r.source == kAny || (r.source >= 0 && r.source < nranks),
                    "fault plan: rule source rank out of range");
    EGT_REQUIRE_MSG(r.dest == kAny || (r.dest >= 0 && r.dest < nranks),
                    "fault plan: rule dest rank out of range");
  };
  for (const MessageFault& r : drops_) check_rule(r);
  for (const MessageFault& r : delays_) check_rule(r);
}

}  // namespace egt::ft
