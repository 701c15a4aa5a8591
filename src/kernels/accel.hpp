// Which lookup-table tier a scalar type's arithmetic reads.
//
// The tables themselves live under the scalar types (arith/lut.hpp): the
// ≤16-bit formats' own operators read them, so every caller of + − × ÷ √
// — the kernels and the dense restart alike — gets the table speed, and
// the kernels are plain loops over T. This header names the tiers for
// code that wants to build a format's tables ahead of use (the instances
// below are the very tables the operators read), and re-exports them under
// kernels::accel.
#pragma once

#include "arith/lut.hpp"
#include "arith/traits.hpp"

namespace mfla {
namespace kernels {
namespace accel {

enum class AccelKind { none, lut8, dec16_ieee, dec16_tapered };

template <typename T>
[[nodiscard]] consteval AccelKind accel_kind() noexcept {
  if constexpr (!HasScalarCodec<T>) {
    return AccelKind::none;
  } else if constexpr (ScalarCodec<T>::bits == 8) {
    return AccelKind::lut8;
  } else if constexpr (ScalarCodec<T>::bits == 16) {
    return ScalarCodec<T>::tapered ? AccelKind::dec16_tapered : AccelKind::dec16_ieee;
  } else {
    return AccelKind::none;
  }
}

using mfla::Dec16;
using mfla::Lut8;

}  // namespace accel
}  // namespace kernels
}  // namespace mfla
