#include "ft/protocol.hpp"

#include <string>

#include "core/wire.hpp"

namespace egt::ft {

namespace {

constexpr const char* kWhat = "ft protocol message";

void put_row(core::wire::Writer& w, std::span<const double> row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  w.doubles(row.data(), row.size());
}

std::vector<double> get_row(core::wire::Reader& r, std::uint32_t ssets) {
  const std::uint32_t n = r.u32("row length");
  if (n != 0 && n != ssets) {
    r.fail("payoff row of " + std::to_string(n) + " entries, want 0 or " +
           std::to_string(ssets));
  }
  return r.doubles(n, "payoff row");
}

}  // namespace

std::vector<std::byte> encode_fit(std::uint64_t req, double fitness,
                                  std::span<const double> row) {
  core::wire::Writer w;
  w.u64(req);
  w.f64(fitness);
  put_row(w, row);
  return w.take();
}

FitReply decode_fit(const std::vector<std::byte>& in, std::uint32_t ssets) {
  core::wire::Reader r(in, kWhat);
  FitReply f;
  f.req = r.u64("request id");
  f.fitness = r.f64("fitness");
  f.row = get_row(r, ssets);
  r.expect_exhausted();
  return f;
}

std::vector<std::byte> encode_decide(const core::GenerationDecision& d,
                                     std::span<const double> row) {
  core::wire::Writer w;
  w.u64(d.gen);
  core::wire::put_decision(w, d);
  put_row(w, row);
  return w.take();
}

DecideMsg decode_decide(const std::vector<std::byte>& in, std::uint32_t ssets) {
  core::wire::Reader r(in, kWhat);
  DecideMsg m;
  const std::uint64_t gen = r.u64("generation");
  m.decision = core::wire::get_decision(r, gen);
  m.row = get_row(r, ssets);
  r.expect_exhausted();
  return m;
}

}  // namespace egt::ft
