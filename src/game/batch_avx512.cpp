// AVX-512 widths of the lane kernels (DESIGN.md §12): the payoff-only
// memory-one kernel and the fused sampled kernel (totals and payoff-only),
// each with two 8-lane groups (16 pairs or games) in flight. Built with
// -mavx512f -mavx512dq -mavx2 -mfma and reached only through the runtime
// dispatch of expected_payoff_mem1 (simd::mem1_lanes() == 16),
// play_stream_games and payoff_stream_games (simd::stream_lanes() == 16).
// It includes nothing but the lane headers, so no other code of the
// library is compiled with AVX-512 instructions.
#include "game/mem1_lanes.hpp"
#include "game/stream_lanes.hpp"

namespace egt::game::batch {

void payoff_mem1_avx512(const Mem1Lanes& in, std::size_t n, double* out) {
  payoff_batch<Zmm>(in, n, out);
}

void play_stream_avx512(const StreamLanes& in, std::size_t n,
                        LaneTotals* out) {
  stream_batch<ZmmLanes>(in, n, out);
}

void play_stream_avx512(const StreamLanes& in, std::size_t n, double* out) {
  stream_batch<ZmmLanes>(in, n, out);
}

}  // namespace egt::game::batch
