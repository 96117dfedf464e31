// AVX-512 width of the payoff-only memory-one lane kernel (DESIGN.md §12):
// two 8-lane groups, 16 pairs in flight. Built with -mavx512f -mavx2 -mfma
// and reached only through expected_payoff_mem1's runtime dispatch
// (simd::mem1_lanes() == 16). It includes nothing but game/mem1_lanes.hpp,
// so no other code of the library is compiled with AVX-512 instructions.
#include "game/mem1_lanes.hpp"

namespace egt::game::batch {

void payoff_mem1_avx512(const Mem1Lanes& in, std::size_t n, double* out) {
  payoff_batch<Zmm>(in, n, out);
}

}  // namespace egt::game::batch
