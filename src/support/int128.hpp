// 128-bit integer helpers used by the exact tapered-arithmetic engine.
#pragma once

#include <cstdint>

#include <type_traits>

namespace mfla {

using u128 = unsigned __int128;
using i128 = __int128;

namespace detail {
/// Smallest unsigned integer type that holds `Bits` bits.
template <int Bits>
using uint_for_bits =
    std::conditional_t<(Bits <= 8), std::uint8_t,
                       std::conditional_t<(Bits <= 16), std::uint16_t,
                                          std::conditional_t<(Bits <= 32), std::uint32_t, std::uint64_t>>>;
}  // namespace detail

/// Count leading zeros of a non-zero 128-bit value.
[[nodiscard]] constexpr int clz_u128(u128 x) noexcept {
  const auto hi = static_cast<std::uint64_t>(x >> 64);
  const auto lo = static_cast<std::uint64_t>(x);
  if (hi != 0) return __builtin_clzll(hi);
  return 64 + __builtin_clzll(lo);
}

/// Count leading zeros of a non-zero 64-bit value.
[[nodiscard]] constexpr int clz_u64(std::uint64_t x) noexcept {
  return __builtin_clzll(x);
}

/// Right shift that collects the shifted-out bits into a sticky flag.
/// Well-defined for any shift amount (including >= 128).
[[nodiscard]] constexpr u128 shift_right_sticky(u128 x, int s, bool& sticky) noexcept {
  if (s <= 0) return x;
  if (s >= 128) {
    sticky = sticky || (x != 0);
    return 0;
  }
  const u128 lost = x << (128 - s);
  sticky = sticky || (lost != 0);
  return x >> s;
}

/// Floor of the integer square root of a 64-bit value: the correctly
/// rounded double square root is within one of it, and an exact integer
/// correction removes that error. No division.
[[nodiscard]] inline std::uint32_t isqrt_u64(std::uint64_t n) noexcept {
  constexpr std::uint64_t kMax = 0xffffffffu;  // floor(sqrt(2^64 - 1))
  auto x = static_cast<std::uint64_t>(__builtin_sqrt(static_cast<double>(n)));
  if (x > kMax) x = kMax;
  while (x * x > n) --x;
  while (x < kMax && (x + 1) * (x + 1) <= n) ++x;
  return static_cast<std::uint32_t>(x);
}

/// Floor of the integer square root of a 128-bit value.
/// Newton iteration seeded from the long double estimate, with an exact
/// correction loop (at most a couple of steps).
[[nodiscard]] inline std::uint64_t isqrt_u128(u128 n) noexcept {
  if (n == 0) return 0;
  // Seed: long double carries a 64-bit significand, so the estimate for a
  // 128-bit operand is good to ~2^-60 relative error.
  auto x = static_cast<std::uint64_t>(__builtin_sqrtl(static_cast<long double>(n)));
  // A few Newton steps in integer arithmetic remove the seed error.
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t q = (x != 0) ? static_cast<std::uint64_t>(n / x) : ~0ull;
    x = x / 2 + q / 2 + ((x & 1u) & (q & 1u));
  }
  // Exact correction: ensure x = floor(sqrt(n)).
  while (x > 0 && static_cast<u128>(x) * x > n) --x;
  while (x + 1 != 0 && static_cast<u128>(x + 1) * (x + 1) <= n) ++x;
  return x;
}

}  // namespace mfla
