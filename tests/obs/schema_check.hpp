// Shared validator for the egt.run_manifest/v4 schema (manifest.hpp).
// Used by the unit round-trip test and the serial/parallel integration
// test, so the documented schema is enforced in one place.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "obs/manifest.hpp"
#include "util/json.hpp"

namespace egt::obs::testing {

inline void expect_section_object(const util::JsonValue& doc,
                                  const std::string& key) {
  ASSERT_TRUE(doc.has(key)) << "missing section: " << key;
  EXPECT_TRUE(doc.at(key).is_object()) << key << " must be an object";
}

/// Assert a histogram body carries ordered latency quantiles:
/// min <= p50 <= p95 <= p99 <= max (v2 addition).
inline void expect_quantiles(const util::JsonValue& h,
                             const std::string& name) {
  ASSERT_TRUE(h.has("p50_seconds")) << name;
  ASSERT_TRUE(h.has("p95_seconds")) << name;
  ASSERT_TRUE(h.has("p99_seconds")) << name;
  const double p50 = h.at("p50_seconds").as_number();
  const double p95 = h.at("p95_seconds").as_number();
  const double p99 = h.at("p99_seconds").as_number();
  EXPECT_GE(p50, h.at("min_seconds").as_number()) << name;
  EXPECT_GE(p95, p50) << name;
  EXPECT_GE(p99, p95) << name;
  EXPECT_LE(p99, h.at("max_seconds").as_number()) << name;
}

/// Assert `doc` is a well-formed egt.run_manifest/v4 document.
/// `expect_traffic` demands the parallel-only "traffic" section too.
inline void expect_valid_manifest(const util::JsonValue& doc,
                                  bool expect_traffic) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").as_string(), kManifestSchema);
  EXPECT_TRUE(doc.at("tool").is_string());
  EXPECT_TRUE(doc.at("git_describe").is_string());
  EXPECT_FALSE(doc.at("git_describe").as_string().empty());

  // v4: which batch kernel the run dispatched to, and the gates behind it.
  expect_section_object(doc, "kernel");
  const auto& k = doc.at("kernel");
  EXPECT_TRUE(k.at("avx2_compiled").is_bool());
  EXPECT_TRUE(k.at("cpu_avx2").is_bool());
  EXPECT_TRUE(k.at("cpu_avx512").is_bool());
  EXPECT_TRUE(k.at("forced_scalar").is_bool());
  const std::string dispatched = k.at("dispatched").as_string();
  EXPECT_TRUE(dispatched == "avx2" || dispatched == "scalar") << dispatched;
  const std::uint64_t lanes = k.at("mem1_lanes").as_u64();
  if (dispatched == "avx2") {
    // AVX2 only runs when compiled in, supported and not forced off; the
    // payoff kernel then keeps 8 or (with AVX-512) 16 pairs in flight.
    EXPECT_TRUE(k.at("avx2_compiled").as_bool());
    EXPECT_TRUE(k.at("cpu_avx2").as_bool());
    EXPECT_FALSE(k.at("forced_scalar").as_bool());
    EXPECT_TRUE(lanes == 8 || lanes == 16) << lanes;
    if (lanes == 16) EXPECT_TRUE(k.at("cpu_avx512").as_bool());
  } else {
    EXPECT_EQ(lanes, 1u);
  }

  expect_section_object(doc, "config");
  EXPECT_TRUE(doc.at("config").at("summary").is_string());
  EXPECT_TRUE(doc.at("config").at("fingerprint").is_number());

  // v3: the game block is optional (benches omit it) but, when present,
  // must describe a complete GameSpec.
  if (doc.has("game")) {
    const auto& g = doc.at("game");
    ASSERT_TRUE(g.is_object());
    const std::string kind = g.at("kind").as_string();
    EXPECT_TRUE(kind == "matrix" || kind == "public_goods") << kind;
    EXPECT_TRUE(g.at("name").is_string());
    EXPECT_GE(g.at("actions").as_u64(), 2u);
    const std::string play = g.at("play").as_string();
    EXPECT_TRUE(play == "iterated" || play == "one_shot") << play;
    ASSERT_TRUE(g.at("labels").is_array());
    EXPECT_EQ(g.at("labels").items().size(), g.at("actions").as_u64());
    EXPECT_GE(g.at("rounds").as_u64(), 1u);
    EXPECT_TRUE(g.at("noise").is_number());
    EXPECT_EQ(g.at("matrix_hash").as_string().size(), 16u);
    if (kind == "public_goods") {
      EXPECT_GT(g.at("pgg_r").as_number(), 0.0);
      EXPECT_GT(g.at("pgg_cost").as_number(), 0.0);
      EXPECT_TRUE(g.at("pgg_k").is_number());
    }
  }

  expect_section_object(doc, "run");
  const auto& run = doc.at("run");
  EXPECT_TRUE(run.at("ranks").is_number());
  EXPECT_TRUE(run.at("generations").is_number());
  EXPECT_GE(run.at("wall_seconds").as_number(), 0.0);

  expect_section_object(doc, "phases");
  for (const auto& [name, ph] : doc.at("phases").members()) {
    ASSERT_TRUE(ph.is_object()) << "phase " << name;
    // Phase keys have the "phase." prefix stripped.
    EXPECT_EQ(name.find("phase."), std::string::npos);
    EXPECT_GE(ph.at("seconds").as_number(), 0.0);
    EXPECT_GE(ph.at("count").as_number(), 0.0);
    EXPECT_GE(ph.at("min_seconds").as_number(), 0.0);
    EXPECT_GE(ph.at("max_seconds").as_number(),
              ph.at("min_seconds").as_number());
    expect_quantiles(ph, name);
  }

  expect_section_object(doc, "timers");
  for (const auto& [name, tm] : doc.at("timers").members()) {
    ASSERT_TRUE(tm.is_object()) << "timer " << name;
    // Timers keep their full dotted name (only "phase." is special-cased).
    EXPECT_NE(name.rfind("phase.", 0), 0u) << name;
    EXPECT_GE(tm.at("seconds").as_number(), 0.0);
    EXPECT_GE(tm.at("count").as_number(), 0.0);
    expect_quantiles(tm, name);
  }

  expect_section_object(doc, "counters");
  for (const auto& [name, v] : doc.at("counters").members()) {
    EXPECT_TRUE(v.is_number()) << "counter " << name;
  }
  expect_section_object(doc, "gauges");

  if (!expect_traffic) return;
  expect_section_object(doc, "traffic");
  const auto& t = doc.at("traffic");
  EXPECT_TRUE(t.at("bytes").is_number());
  EXPECT_TRUE(t.at("messages").is_number());
  expect_section_object(t, "p2p");
  expect_section_object(t, "broadcast");
  // The two classes partition the totals.
  EXPECT_EQ(t.at("p2p").at("messages").as_u64() +
                t.at("broadcast").at("messages").as_u64(),
            t.at("messages").as_u64());
  EXPECT_EQ(t.at("p2p").at("bytes").as_u64() +
                t.at("broadcast").at("bytes").as_u64(),
            t.at("bytes").as_u64());
  ASSERT_TRUE(t.at("per_rank").is_array());
  for (const auto& r : t.at("per_rank").items()) {
    EXPECT_TRUE(r.at("rank").is_number());
    EXPECT_TRUE(r.at("p2p_bytes").is_number());
    EXPECT_TRUE(r.at("p2p_messages").is_number());
    EXPECT_TRUE(r.at("bcast_bytes").is_number());
    EXPECT_TRUE(r.at("bcast_messages").is_number());
  }
}

}  // namespace egt::obs::testing
