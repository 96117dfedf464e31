#include "core/wire.hpp"

namespace egt::core::wire {

void Writer::raw(const void* p, std::size_t n) {
  const auto off = out_.size();
  out_.resize(off + n);
  std::memcpy(out_.data() + off, p, n);
}

}  // namespace egt::core::wire
