#include "obs/metrics_stream.hpp"

#include <algorithm>

#include "pop/stats.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace egt::obs {

MetricsStreamWriter::MetricsStreamWriter(Options options)
    : options_(std::move(options)) {
  if (options_.every == 0) options_.every = 1;
  out_.open(options_.path);
  ok_ = static_cast<bool>(out_);
}

void MetricsStreamWriter::on_generation(std::uint64_t generation,
                                        const pop::Population& pop,
                                        const MetricsRegistry& registry) {
  on_generation(generation, pop, registry, pop.fitness());
}

void MetricsStreamWriter::on_generation(std::uint64_t generation,
                                        const pop::Population& pop,
                                        const MetricsRegistry& registry,
                                        std::span<const double> fitness) {
  if (!wants(generation)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<std::int64_t>(generation) <= last_generation_) return;
  last_generation_ = static_cast<std::int64_t>(generation);

  const MetricsSnapshot snap = registry.snapshot();
  const auto census = pop::census(pop);

  util::JsonWriter w(out_, 0);
  w.begin_object();
  w.field("schema", kMetricsStreamSchema);
  w.field("generation", generation);
  w.field("wall_seconds", wall_.seconds());
  w.field("mean_fitness", util::mean(fitness));

  w.key("phases").begin_object();
  for (const char* name : phase::kAll) {
    // Strip the "phase." prefix, matching the manifest's phases section.
    w.field(std::string(name).substr(6), snap.histogram_seconds(name));
  }
  w.end_object();

  w.key("counters").begin_object();
  w.field("games_played", snap.counter_value("engine.games_played"));
  w.field("pairs_evaluated", snap.counter_value("engine.pairs_evaluated"));
  w.end_object();

  w.field("strategy_classes", static_cast<std::uint64_t>(census.size()));
  w.key("top_class_counts").begin_array();
  const std::size_t top = std::min<std::size_t>(census.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    w.value(static_cast<std::uint64_t>(census[i].count));
  }
  w.end_array();

  bool have_ft = false;
  for (const auto& c : snap.counters) {
    if (c.name.rfind("ft.", 0) != 0) continue;
    if (!have_ft) {
      w.key("ft").begin_object();
      have_ft = true;
    }
    w.field(c.name, c.value);
  }
  if (have_ft) w.end_object();

  w.end_object();
  out_ << "\n";
  out_.flush();  // a live stream is only live if lines land promptly
  lines_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace egt::obs
