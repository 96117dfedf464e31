#include "simcheck/repro.hpp"

#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "simcheck/config_json.hpp"
#include "util/json.hpp"

namespace egt::simcheck {

std::string repro_to_json(const CaseResult& result, bool include_trace) {
  const auto& spec = result.spec;
  std::ostringstream os;
  util::JsonWriter w(os, 2);
  w.begin_object();
  w.field("schema", kReproSchema);
  w.field("case_seed", spec.case_seed);
  w.field("nranks", spec.nranks);
  w.field("threads", spec.threads);
  w.field("restore_at", spec.restore_at);
  w.key("kills").begin_array();
  for (const auto& k : spec.kills) {
    w.begin_object();
    w.field("rank", k.rank);
    w.field("generation", k.generation);
    w.end_object();
  }
  w.end_array();
  w.key("engines").begin_array();
  for (const auto kind : spec.engines) w.value(engine_kind_name(kind));
  w.end_array();
  w.key("config");
  write_config(w, spec.config);
  w.key("failures").begin_array();
  for (const auto& f : result.failures) {
    w.begin_object();
    w.field("engine", engine_kind_name(f.engine));
    w.field("what", f.what);
    w.end_object();
  }
  w.end_array();
  if (include_trace && !result.reference.trace.empty()) {
    w.field("trace_hex", to_hex(encode_trace(result.reference.trace)));
  }
  w.end_object();
  return os.str();
}

ParsedRepro parse_repro(const std::string& json_text) {
  const auto doc = util::JsonValue::parse(json_text);
  if (!doc.is_object()) {
    throw std::runtime_error("simcheck repro: expected a JSON object");
  }
  if (const auto* s = doc.find("schema")) {
    if (s->as_string() != kReproSchema) {
      throw std::runtime_error("simcheck repro: unexpected schema \"" +
                               s->as_string() + "\"");
    }
  }
  ParsedRepro parsed;
  auto& spec = parsed.spec;
  const auto read_u = [&doc](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    if (const auto* v = doc.find(key)) field = static_cast<T>(v->as_u64());
  };
  read_u("case_seed", spec.case_seed);
  read_u("nranks", spec.nranks);
  read_u("threads", spec.threads);
  read_u("restore_at", spec.restore_at);
  if (const auto* v = doc.find("kills")) {
    for (const auto& item : v->items()) {
      spec.kills.push_back({static_cast<int>(item.at("rank").as_u64()),
                            item.at("generation").as_u64()});
    }
  }
  if (const auto* v = doc.find("engines")) {
    for (const auto& item : v->items()) {
      const auto kind = engine_kind_from_name(item.as_string());
      if (!kind) {
        throw std::runtime_error("simcheck repro: unknown engine \"" +
                                 item.as_string() + "\"");
      }
      spec.engines.push_back(*kind);
    }
  }
  spec.config = config_from_json(doc.at("config"));
  if (const auto* v = doc.find("trace_hex")) {
    parsed.trace = decode_trace(from_hex(v->as_string()));
  }
  return parsed;
}

ReplayResult replay_repro(const std::string& json_text) {
  auto parsed = parse_repro(json_text);
  if (!normalize_spec(parsed.spec)) {
    throw std::runtime_error(
        "simcheck repro: spec has no valid form (no engines left after "
        "normalization)");
  }
  ReplayResult replay;
  replay.result = run_case(parsed.spec);
  if (parsed.trace && replay.result.reference.ok) {
    replay.recorded_divergence =
        compare_traces(*parsed.trace, replay.result.reference.trace);
  }
  return replay;
}

}  // namespace egt::simcheck
