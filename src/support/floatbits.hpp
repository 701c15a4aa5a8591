// IEEE-754 double decomposition helpers shared by all emulated formats.
#pragma once

#include <bit>
#include <cstdint>

namespace mfla {

/// Exact decomposition of a double: |d| = sig * 2^e with sig in [2^52, 2^53)
/// for all finite non-zero inputs (subnormals are normalized).
struct DoubleParts {
  bool neg = false;
  bool zero = false;
  bool nan = false;
  bool inf = false;
  int e = 0;               // binary exponent of the least significant bit
  std::uint64_t sig = 0;   // 53-bit significand, MSB set unless zero
};

[[nodiscard]] inline DoubleParts decompose_double(double d) noexcept {
  DoubleParts p;
  const auto bits = std::bit_cast<std::uint64_t>(d);
  p.neg = (bits >> 63) != 0;
  const int be = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t m = bits & ((1ull << 52) - 1);
  if (be == 0x7ff) {
    p.nan = (m != 0);
    p.inf = (m == 0);
    return p;
  }
  if (be == 0) {
    if (m == 0) {
      p.zero = true;
      return p;
    }
    // Subnormal: value = m * 2^-1074; normalize the significand to 53 bits.
    const int shift = __builtin_clzll(m) - 11;
    p.sig = m << shift;
    p.e = -1074 - shift;
    return p;
  }
  p.sig = (1ull << 52) | m;
  p.e = be - 1075;  // value = sig * 2^(be - 1023 - 52)
  return p;
}

/// Reassemble sign/significand/exponent into the nearest double
/// (round-to-nearest-even, graceful overflow/underflow). When 2^e is a
/// normal double the scale is built from its bits: the product of the
/// (correctly rounded) significand with an exact power of two is the same
/// single rounding ldexp performs; other exponents go through ldexp.
[[nodiscard]] inline double compose_double(bool neg, std::uint64_t sig, int e) noexcept {
  // static_cast<double>(sig) rounds the 64-bit integer correctly (RNE).
  const double x = static_cast<double>(sig);
  const double mag =
      (e >= -1022 && e <= 1023)
          ? x * std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52)
          : __builtin_ldexp(x, e);
  return neg ? -mag : mag;
}

}  // namespace mfla
