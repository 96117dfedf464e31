#include "obs/manifest.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "game/simd.hpp"
#include "util/json.hpp"

namespace egt::obs {

std::string git_describe() {
#ifdef EGT_GIT_DESCRIBE
  return EGT_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void write_run_manifest(std::ostream& os, const ManifestInfo& info) {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kManifestSchema);
  w.field("tool", info.tool);
  w.field("git_describe", git_describe());

  // The dispatch is process-wide, so the kernel in force now is the one
  // every batch call of the run took.
  w.key("kernel").begin_object();
  w.field("avx2_compiled", game::simd::compiled_with_avx2());
  w.field("cpu_avx2", game::simd::cpu_supports_avx2());
  w.field("cpu_avx512", game::simd::cpu_supports_avx512());
  w.field("forced_scalar", game::simd::force_scalar());
  w.field("dispatched",
          game::simd::kernel_name(game::simd::active_kernel()));
  w.field("mem1_lanes",
          static_cast<std::uint64_t>(game::simd::mem1_lanes()));
  w.field("stream_lanes",
          static_cast<std::uint64_t>(game::simd::stream_lanes()));
  w.end_object();

  w.key("config").begin_object();
  w.field("summary", info.config_summary);
  w.field("fingerprint", info.config_fingerprint);
  if (info.config_fields) info.config_fields(w);
  w.end_object();

  if (info.game != nullptr) {
    const auto& g = *info.game;
    w.key("game").begin_object();
    w.field("kind", g.kind == game::GameKind::PublicGoods ? "public_goods"
                                                          : "matrix");
    w.field("name", g.display_name);
    w.field("actions", static_cast<std::uint64_t>(g.actions));
    w.field("play",
            g.play == game::PlayMode::OneShot ? "one_shot" : "iterated");
    w.key("labels").begin_array();
    for (std::uint32_t a = 0; a < g.actions; ++a) w.value(g.label(a));
    w.end_array();
    w.field("rounds", static_cast<std::uint64_t>(g.rounds));
    w.field("noise", g.noise);
    // Hex string: a u64 would be rounded by JSON's double number model.
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(g.matrix_hash()));
    w.field("matrix_hash", hash);
    if (g.kind == game::GameKind::PublicGoods) {
      w.field("pgg_r", g.pgg_r);
      w.field("pgg_cost", g.pgg_cost);
      w.field("pgg_k", static_cast<std::uint64_t>(g.pgg_k));
    }
    w.end_object();
  }

  w.key("run").begin_object();
  w.field("ranks", info.ranks);
  w.field("generations", info.generations);
  w.field("wall_seconds", info.wall_seconds);
  w.end_object();

  const auto histogram_body = [&w](const MetricsSnapshot::HistogramSample& h,
                                   const std::string& key) {
    w.key(key).begin_object();
    w.field("seconds", h.total_seconds);
    w.field("count", h.count);
    w.field("min_seconds", h.min_seconds);
    w.field("max_seconds", h.max_seconds);
    w.field("p50_seconds", h.quantile_seconds(0.50));
    w.field("p95_seconds", h.quantile_seconds(0.95));
    w.field("p99_seconds", h.quantile_seconds(0.99));
    w.end_object();
  };

  w.key("phases").begin_object();
  if (info.metrics != nullptr) {
    for (const auto& h : info.metrics->histograms) {
      if (h.name.rfind("phase.", 0) != 0) continue;
      histogram_body(h, h.name.substr(6));
    }
  }
  w.end_object();

  // Every other histogram (e.g. a bench's "bench.sweep_point") lands here
  // under its full name, so no recorded timer is silently dropped.
  w.key("timers").begin_object();
  if (info.metrics != nullptr) {
    for (const auto& h : info.metrics->histograms) {
      if (h.name.rfind("phase.", 0) == 0) continue;
      histogram_body(h, h.name);
    }
  }
  w.end_object();

  w.key("counters").begin_object();
  if (info.metrics != nullptr) {
    for (const auto& c : info.metrics->counters) w.field(c.name, c.value);
  }
  w.end_object();

  w.key("gauges").begin_object();
  if (info.metrics != nullptr) {
    for (const auto& g : info.metrics->gauges) w.field(g.name, g.value);
  }
  w.end_object();

  if (info.traffic != nullptr) {
    const auto& t = *info.traffic;
    w.key("traffic").begin_object();
    w.field("bytes", t.bytes);
    w.field("messages", t.messages);
    w.key("p2p").begin_object();
    w.field("bytes", t.p2p_bytes);
    w.field("messages", t.p2p_messages);
    w.end_object();
    w.key("broadcast").begin_object();
    w.field("bytes", t.bcast_bytes);
    w.field("messages", t.bcast_messages);
    w.end_object();
    w.key("per_rank").begin_array();
    for (std::size_t r = 0; r < t.per_rank.size(); ++r) {
      const auto& rt = t.per_rank[r];
      w.begin_object();
      w.field("rank", static_cast<std::uint64_t>(r));
      w.field("p2p_bytes", rt.p2p_bytes);
      w.field("p2p_messages", rt.p2p_messages);
      w.field("bcast_bytes", rt.bcast_bytes);
      w.field("bcast_messages", rt.bcast_messages);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  os << "\n";
}

void write_run_manifest_file(const std::string& path,
                             const ManifestInfo& info) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open manifest file for writing: " + path);
  }
  write_run_manifest(out, info);
}

}  // namespace egt::obs
