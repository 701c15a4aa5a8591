// Software-emulated IEEE-754-style minifloats.
//
// SoftFloat<E, M, Flavor> models a binary floating-point format with E
// exponent bits, M mantissa bits and IEEE-like subnormals. Two flavors:
//
//  * Flavor::ieee       — infinities and NaNs as in IEEE 754 (float16,
//                         bfloat16 and OFP8 E5M2 use this).
//  * Flavor::finite_nan — the OFP8 E4M3 layout: no infinities; the
//                         all-ones exponent encodings are ordinary finite
//                         numbers except S.1111.111 which is NaN. Overflow
//                         converts to NaN (OCP non-saturating mode).
//
// The exact engine (add_exact, ..., to_double_exact) converts to double,
// computes, and rounds back with round-to-nearest-even. Because
// 2*M + 2 <= 53 for every format instantiated here (M <= 10), the double
// rounding is provably innocuous, i.e. every operation is correctly
// rounded. The operators of the 8- and 16-bit formats read the tables of
// arith/lut.hpp, which hold the exact engine's results.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>
#include <type_traits>

#include "arith/lut.hpp"
#include "support/int128.hpp"

namespace mfla {

enum class Flavor { ieee, finite_nan };

template <int E, int M, Flavor F = Flavor::ieee>
class SoftFloat {
  static_assert(E >= 2 && E <= 8, "exponent field out of supported range");
  static_assert(M >= 1 && M <= 10, "mantissa field out of supported range");

 public:
  static constexpr int kBits = 1 + E + M;
  static constexpr int kExpBits = E;
  static constexpr int kManBits = M;
  static constexpr Flavor kFlavor = F;
  using Storage = detail::uint_for_bits<kBits>;

  static constexpr int kBias = (1 << (E - 1)) - 1;
  static constexpr int kEmin = 1 - kBias;  // minimum normal exponent
  // Maximum finite exponent: IEEE reserves the all-ones exponent; the
  // finite_nan flavor uses it for finite values.
  static constexpr int kEmax = (F == Flavor::ieee) ? kBias : ((1 << E) - 1) - kBias;

  constexpr SoftFloat() noexcept : bits_(0) {}
  constexpr SoftFloat(double d) noexcept : bits_(from_double(d).bits_) {}
  constexpr SoftFloat(int i) noexcept : SoftFloat(static_cast<double>(i)) {}

  [[nodiscard]] static constexpr SoftFloat from_bits(Storage b) noexcept {
    SoftFloat r;
    r.bits_ = b & mask(kBits);
    return r;
  }
  [[nodiscard]] constexpr Storage bits() const noexcept { return bits_; }

  // -- Special values ------------------------------------------------------
  [[nodiscard]] static constexpr SoftFloat nan() noexcept {
    if constexpr (F == Flavor::ieee) {
      return from_bits(static_cast<Storage>((mask(E) << M) | (Storage{1} << (M - 1))));
    } else {
      return from_bits(static_cast<Storage>(mask(E + M)));  // S.111..111
    }
  }
  [[nodiscard]] static constexpr SoftFloat infinity() noexcept {
    // Dependent on F, so it fires exactly when a finite_nan instantiation
    // calls infinity() (that flavor reuses the all-ones exponent encodings
    // for finite values; the would-be infinity pattern is an ordinary
    // number there).
    static_assert(F == Flavor::ieee, "finite_nan formats have no infinity");
    return from_bits(static_cast<Storage>(mask(E) << M));
  }
  [[nodiscard]] static constexpr SoftFloat max_finite() noexcept {
    if constexpr (F == Flavor::ieee) {
      // Exponent all-ones minus one, mantissa all ones.
      return from_bits(static_cast<Storage>(((mask(E) - 1) << M) | mask(M)));
    } else {
      // All ones except the mantissa LSB (which would be NaN).
      return from_bits(static_cast<Storage>(mask(E + M) - 1));
    }
  }
  [[nodiscard]] static constexpr SoftFloat min_positive_subnormal() noexcept { return from_bits(Storage{1}); }
  [[nodiscard]] static constexpr SoftFloat min_positive_normal() noexcept {
    return from_bits(static_cast<Storage>(Storage{1} << M));
  }
  /// Machine epsilon (spacing just above 1).
  [[nodiscard]] static constexpr double epsilon() noexcept { return std::ldexp(1.0, -M); }

  // -- Predicates ----------------------------------------------------------
  [[nodiscard]] constexpr bool is_zero() const noexcept { return (bits_ & mask(E + M)) == 0; }
  [[nodiscard]] constexpr bool signbit() const noexcept { return (bits_ >> (E + M)) & 1; }
  [[nodiscard]] constexpr bool is_nan() const noexcept {
    const Storage mag = bits_ & mask(E + M);
    if constexpr (F == Flavor::ieee) {
      return (mag >> M) == mask(E) && (mag & mask(M)) != 0;
    } else {
      return mag == mask(E + M);
    }
  }
  [[nodiscard]] constexpr bool is_inf() const noexcept {
    if constexpr (F == Flavor::ieee) {
      return (bits_ & mask(E + M)) == (mask(E) << M);
    } else {
      return false;
    }
  }
  [[nodiscard]] constexpr bool is_finite() const noexcept { return !is_nan() && !is_inf(); }

  // -- Conversions ---------------------------------------------------------
  /// Round-to-nearest-even straight on the double's bits. For a normal
  /// target the rebiased exponent+fraction word is rounded with one add and
  /// one shift: a carry out of the fraction bumps the exponent, and any
  /// result at or past the overflow pattern becomes inf (IEEE) or NaN
  /// (E4M3). Only subnormal targets and specials take another branch.
  [[nodiscard]] static constexpr SoftFloat from_double(double d) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    const auto sign = static_cast<Storage>((bits >> 63) << (E + M));
    const std::uint64_t a = bits & ~(1ull << 63);
    if (a >= kRebias + (1ull << 52)) {  // |d| >= 2^kEmin, or inf/NaN
      const std::uint64_t r = round_shift(a - kRebias, 52 - M);
      if (r >= kOverflowBits) [[unlikely]] {
        if constexpr (F == Flavor::ieee) {
          if (a > kDoubleInfBits) return nan();
          return from_bits(static_cast<Storage>(infinity().bits_ | sign));
        } else {
          return nan();
        }
      }
      return from_bits(static_cast<Storage>(r | sign));
    }
    // Subnormal target (or zero): round sig * 2^(be - 1075) to a multiple of
    // 2^(kEmin - M). A carry into bit M yields the minimum normal encoding.
    const int be = static_cast<int>(a >> 52);
    const int shift = (1076 - kBias - M) - be;  // >= 53 - M
    if (be == 0 || shift > 53) return from_bits(sign);  // below half of minpos
    const std::uint64_t sig = (1ull << 52) | (a & ((1ull << 52) - 1));
    return from_bits(static_cast<Storage>(round_shift(sig, shift) | sign));
  }

  /// The value as a double: one table load for 8- and 16-bit formats.
  [[nodiscard]] double to_double() const noexcept {
    if constexpr (kLut8) return Lut8<SoftFloat>::instance().decode(bits_);
    else if constexpr (kDec16) return Dec16<SoftFloat>::instance().decode(bits_);
    else return to_double_exact();
  }

  /// Builds the double's bits directly: a normal encoding is rebiased with
  /// one shift and one add; a subnormal one is scaled by an exact power of two.
  [[nodiscard]] constexpr double to_double_exact() const noexcept {
    const Storage mag = bits_ & mask(E + M);
    const std::uint64_t sign = static_cast<std::uint64_t>(signbit()) << 63;
    if (mag >= (Storage{1} << M)) {
      if constexpr (F == Flavor::ieee) {
        if ((mag >> M) == mask(E)) {
          if ((mag & mask(M)) != 0) return std::numeric_limits<double>::quiet_NaN();
          return std::bit_cast<double>(kDoubleInfBits | sign);
        }
      } else {
        if (mag == mask(E + M)) return std::numeric_limits<double>::quiet_NaN();
      }
      return std::bit_cast<double>(((static_cast<std::uint64_t>(mag) << (52 - M)) + kRebias) | sign);
    }
    const double v = static_cast<double>(mag) * kSubnormalScale;
    return sign ? -v : v;
  }

  explicit operator double() const noexcept { return to_double(); }
  explicit operator float() const noexcept { return static_cast<float>(to_double()); }

  // -- Arithmetic (correctly rounded) --------------------------------------
  // The exact engine, by name: the table builders and tests call these.
  [[nodiscard]] static constexpr SoftFloat add_exact(SoftFloat a, SoftFloat b) noexcept {
    return binary<true>(a, b, std::plus<>{});
  }
  [[nodiscard]] static constexpr SoftFloat sub_exact(SoftFloat a, SoftFloat b) noexcept {
    return binary<true>(a, b, std::minus<>{});
  }
  [[nodiscard]] static constexpr SoftFloat mul_exact(SoftFloat a, SoftFloat b) noexcept {
    return binary<true>(a, b, std::multiplies<>{});
  }
  [[nodiscard]] static constexpr SoftFloat div_exact(SoftFloat a, SoftFloat b) noexcept {
    return binary<true>(a, b, std::divides<>{});
  }
  [[nodiscard]] static SoftFloat sqrt_exact(SoftFloat a) noexcept {
    return from_double(std::sqrt(a.to_double_exact()));
  }

  // The operators: table loads at 8 bits, table decodes at 16 bits.
  friend SoftFloat operator+(SoftFloat a, SoftFloat b) noexcept {
    if constexpr (kLut8) return Lut8<SoftFloat>::instance().add(a, b);
    else return binary<false>(a, b, std::plus<>{});
  }
  friend SoftFloat operator-(SoftFloat a, SoftFloat b) noexcept {
    if constexpr (kLut8) return Lut8<SoftFloat>::instance().add(a, negate(b));
    else return binary<false>(a, b, std::minus<>{});
  }
  friend SoftFloat operator*(SoftFloat a, SoftFloat b) noexcept {
    if constexpr (kLut8) return Lut8<SoftFloat>::instance().mul(a, b);
    else return binary<false>(a, b, std::multiplies<>{});
  }
  friend SoftFloat operator/(SoftFloat a, SoftFloat b) noexcept {
    if constexpr (kLut8) return Lut8<SoftFloat>::instance().div(a, b);
    else return binary<false>(a, b, std::divides<>{});
  }
  friend constexpr SoftFloat operator-(SoftFloat a) noexcept { return negate(a); }
  friend constexpr SoftFloat operator+(SoftFloat a) noexcept { return a; }

  SoftFloat& operator+=(SoftFloat o) noexcept { return *this = *this + o; }
  SoftFloat& operator-=(SoftFloat o) noexcept { return *this = *this - o; }
  SoftFloat& operator*=(SoftFloat o) noexcept { return *this = *this * o; }
  SoftFloat& operator/=(SoftFloat o) noexcept { return *this = *this / o; }

  // -- Comparisons (IEEE semantics: NaN unordered) -------------------------
  friend constexpr bool operator==(SoftFloat a, SoftFloat b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(SoftFloat a, SoftFloat b) noexcept { return !(a == b); }
  friend constexpr bool operator<(SoftFloat a, SoftFloat b) noexcept {
    return a.to_double_exact() < b.to_double_exact();
  }
  friend constexpr bool operator>(SoftFloat a, SoftFloat b) noexcept { return b < a; }
  friend constexpr bool operator<=(SoftFloat a, SoftFloat b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    return !(b < a);
  }
  friend constexpr bool operator>=(SoftFloat a, SoftFloat b) noexcept { return b <= a; }

  [[nodiscard]] static constexpr SoftFloat negate(SoftFloat a) noexcept {
    SoftFloat r = a;
    r.bits_ ^= static_cast<Storage>(Storage{1} << (E + M));
    return r;
  }

 private:
  static constexpr bool kLut8 = lut8_width(kBits);
  static constexpr bool kDec16 = dec16_width(kBits);

  /// a op b in double, rounded once. Behind the 16-bit operators both
  /// operands decode from one fetch of the Dec16 table.
  template <bool kExact, class Op>
  [[nodiscard]] static constexpr SoftFloat binary(SoftFloat a, SoftFloat b, Op op) noexcept {
    if constexpr (kExact || !kDec16) {
      return from_double(op(a.to_double_exact(), b.to_double_exact()));
    } else {
      const auto& t = Dec16<SoftFloat>::instance();
      return from_double(op(t.decode(a.bits_), t.decode(b.bits_)));
    }
  }

  // Offset between the double's biased exponent field and this format's,
  // in place at bit 52 (1023 - kBias > 0 for E <= 8).
  static constexpr std::uint64_t kRebias = static_cast<std::uint64_t>(1023 - kBias) << 52;
  static constexpr std::uint64_t kDoubleInfBits = 0x7ffull << 52;
  // First rounded magnitude that no longer converts to a finite value: the
  // infinity pattern (IEEE) or the all-ones NaN pattern (E4M3).
  static constexpr std::uint64_t kOverflowBits =
      (F == Flavor::ieee) ? ((1ull << E) - 1) << M : (1ull << (E + M)) - 1;
  // 2^(kEmin - M), the weight of a subnormal's mantissa LSB (a normal double).
  static constexpr double kSubnormalScale =
      std::bit_cast<double>(static_cast<std::uint64_t>(1023 + kEmin - M) << 52);

  /// x / 2^s rounded to nearest, ties to even (1 <= s <= 63).
  [[nodiscard]] static constexpr std::uint64_t round_shift(std::uint64_t x, int s) noexcept {
    return (x + ((1ull << (s - 1)) - 1) + ((x >> s) & 1)) >> s;
  }

  [[nodiscard]] static constexpr Storage mask(int n) noexcept {
    return static_cast<Storage>((n >= kBits && static_cast<unsigned>(n) >= 8 * sizeof(Storage))
                                    ? ~Storage{0}
                                    : static_cast<Storage>((Storage{1} << n) - 1));
  }

  Storage bits_;
};

// The concrete formats used in the study.
using Float16 = SoftFloat<5, 10, Flavor::ieee>;
using BFloat16 = SoftFloat<8, 7, Flavor::ieee>;
using OFP8E4M3 = SoftFloat<4, 3, Flavor::finite_nan>;
using OFP8E5M2 = SoftFloat<5, 2, Flavor::ieee>;

// Free-function math used by the templated algorithms.
template <int E, int M, Flavor F>
[[nodiscard]] constexpr SoftFloat<E, M, F> abs(SoftFloat<E, M, F> x) noexcept {
  return x.signbit() ? SoftFloat<E, M, F>::negate(x) : x;
}
template <int E, int M, Flavor F>
[[nodiscard]] inline SoftFloat<E, M, F> sqrt(SoftFloat<E, M, F> x) noexcept {
  using T = SoftFloat<E, M, F>;
  // Correctly rounded: sqrt in double then one rounding to M <= 10 bits.
  if constexpr (lut8_width(T::kBits)) return Lut8<T>::instance().sqrt(x);
  else return T::from_double(std::sqrt(x.to_double()));
}
template <int E, int M, Flavor F>
[[nodiscard]] constexpr bool is_number(SoftFloat<E, M, F> x) noexcept {
  return x.is_finite();
}

}  // namespace mfla
