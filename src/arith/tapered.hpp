// Exact arithmetic engine for tapered-precision formats (posit, takum).
//
// Both posit and takum share the following structure:
//   * monotone two's-complement encoding (negation = two's complement),
//   * a single zero (encoding 0) and a single NaR (encoding 10...0),
//   * a variable-length exponent prefix followed by fraction bits,
//   * rounding defined on the *encoding*: append the infinitely precise
//     tail to the n-bit pattern and round-to-nearest (ties-to-even) as an
//     integer, saturating at +/-maxpos (never to NaR) and +/-minpos (never
//     to zero).
//
// TaperedFloat<Codec> implements +,-,*,/ and sqrt with an exact integer
// significand engine: every operation decodes to (sign, exponent, 64-bit
// significand), computes the exact result with guard/sticky information in
// one core per operation, and rounds once. The cores work on 64-bit words
// where the format's precision leaves room (add up to 60 significant bits,
// which is every registry format; mul, div and sqrt up to 31, which is
// every format of at most 32 bits) and on 128-bit words otherwise. There is
// no intermediate float anywhere, so results are bit-exact regardless of
// host rounding modes. The engine is reachable by name (add_exact, ...,
// unpack_exact); the operators of the 8-bit formats read its results from
// tables, and the 16-bit formats decode through tables (arith/lut.hpp).
//
// Decoded domain. A core's result is finished one of two ways: the
// operators encode it (make), and the decoded ops (add_decoded,
// mul_decoded) round it without encoding (round_decoded), so a chain of
// operations — a dot product's running sum, a reflector application —
// decodes each operand once and encodes each stored result once.
// round_decoded(...) equals decode(make(...)) by definition: it rounds the
// significand at the codec's fraction width frac_bits(e), ties to even,
// carrying into e+1, wherever the exponent prefix fits with at least one
// fraction bit and e (and e+1) stay clear of the saturation edges. There
// it falls back to decode(make(...)): where frac_bits(e) < 1 (the prefix
// itself is cut: posit regimes next to maxpos/minpos), at the extreme
// binades (e = -max_exponent, which for takum is c = -255, whose zero
// fraction is the zero pattern, and e >= max_exponent - 1) and beyond
// them (saturation). The kernels (kernels/vector_ops.hpp) and the Francis
// bulge chase (dense/schur.hpp) run in this domain for the >=16-bit
// formats; the results are bit-identical to the operators.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <type_traits>

#include "arith/lut.hpp"
#include "support/floatbits.hpp"
#include "support/int128.hpp"

namespace mfla {

/// A decoded finite non-zero value: magnitude = m * 2^(e - 63),
/// with m in [2^63, 2^64) (the MSB is the implicit leading 1).
struct Unpacked {
  bool neg = false;
  int e = 0;
  std::uint64_t m = 0;

  friend constexpr bool operator==(const Unpacked&, const Unpacked&) = default;
};

/// A decoded tapered value: zero, NaR, or a finite non-zero Unpacked.
struct Decoded {
  enum class Kind : std::uint8_t { zero, nar, finite };
  Kind kind = Kind::zero;
  Unpacked u{};  // the value when kind == finite

  [[nodiscard]] static constexpr Decoded of(Unpacked v) noexcept { return {Kind::finite, v}; }
  [[nodiscard]] static constexpr Decoded nar() noexcept { return {Kind::nar, {}}; }
  [[nodiscard]] constexpr bool is_finite() const noexcept { return kind == Kind::finite; }

  /// Exact negation (u is ignored unless finite).
  friend constexpr Decoded operator-(Decoded d) noexcept {
    d.u.neg = !d.u.neg;
    return d;
  }
  friend constexpr bool operator==(const Decoded& a, const Decoded& b) noexcept {
    return a.kind == b.kind && (a.kind != Kind::finite || a.u == b.u);
  }
};

namespace detail {

/// A core's exact result before its single rounding: the magnitude is
/// (m + guard/2 + sticky·ε) · 2^(e-63) with m in [2^63, 2^64), where the
/// sticky term is some 0 < ε < 1/2. m == 0 is an exact zero (cancellation).
struct Unrounded {
  bool neg = false;
  int e = 0;
  std::uint64_t m = 0;
  bool guard = false;
  bool sticky = false;
};

/// Encoding-level round-to-nearest-even with posit/takum saturation:
/// payload+1 on round-up; never produces 0 (minpos clamp) and never crosses
/// into the NaR pattern (maxpos clamp).
template <typename Storage>
[[nodiscard]] Storage round_payload(int nbits, std::uint64_t payload, bool guard,
                                    bool rest) noexcept {
  std::uint64_t p = payload;
  if (guard && (rest || (p & 1))) ++p;
  const std::uint64_t top = 1ull << (nbits - 1);
  if (p >= top) p = top - 1;  // saturate below NaR
  if (p == 0) p = 1;          // never round a non-zero value to zero
  return static_cast<Storage>(p);
}

/// Closed-form encode shared by the tapered codecs. The "infinitely
/// precise" positive encoding is the `len`-bit exponent prefix (regime or
/// characteristic), then the 63 fraction bits of m (its leading 1 is
/// implicit), then the guard bit, then the sticky flag. The three pieces
/// are laid out top-down in one Word, cut into the N-1 payload bits, the
/// next (guard) bit and the rest, and rounded once.
///
/// Word is uint64_t when every prefix fits with 1 <= len <= 63 and N <= 63;
/// otherwise u128, whose only lossy case (len > 64, posit64 with a long
/// regime) folds the fraction bits pushed off the bottom into the rest.
template <int N, class Word, class Storage>
[[nodiscard]] Storage encode_stream(Word prefix, int len, std::uint64_t m, bool guard,
                                    bool sticky) noexcept {
  constexpr int kW = 8 * static_cast<int>(sizeof(Word));
  static_assert(N < kW, "the rest bits below the guard need a wider word");
  const std::uint64_t tail = (m << 1) | (guard ? 1u : 0u);  // fraction ++ guard
  Word w = prefix << (kW - len);
  bool lost;
  if constexpr (kW == 64) {
    w |= tail >> len;
    lost = (tail << (64 - len)) != 0;
  } else {
    w |= (static_cast<u128>(tail) << 64) >> len;
    lost = len > 64 && (tail << (128 - len)) != 0;
  }
  const auto payload = static_cast<std::uint64_t>(w >> (kW - (N - 1)));
  const bool g = static_cast<bool>((w >> (kW - N)) & 1);
  const bool rest = (w << N) != 0 || lost || sticky;
  return round_payload<Storage>(N, payload, g, rest);
}

[[nodiscard]] constexpr int bitlen(unsigned v) noexcept {
  return v == 0 ? 0 : 32 - __builtin_clz(v);
}

/// The binades that round_decoded rounds itself: the contiguous run around
/// 2^0 where frac_bits(e) >= 1, the carry target e+1 still fits its
/// prefix, and neither e nor e+1 touches a saturation edge (+-max_exponent).
struct ExpRange {
  int lo, hi;
};
template <class Codec>
[[nodiscard]] constexpr bool fast_exponent(int e) noexcept {
  return e > -Codec::max_exponent && e + 1 < Codec::max_exponent && Codec::frac_bits(e) >= 1 &&
         Codec::frac_bits(e + 1) >= 0;
}
template <class Codec>
[[nodiscard]] constexpr ExpRange fast_exponents() noexcept {
  static_assert(fast_exponent<Codec>(0), "every tapered format keeps a fraction bit at 2^0");
  ExpRange r{0, 0};
  while (fast_exponent<Codec>(r.lo - 1)) --r.lo;
  while (fast_exponent<Codec>(r.hi + 1)) ++r.hi;
  return r;
}

}  // namespace detail

/// Number wrapper over a tapered codec. The Codec supplies:
///   nbits, Storage, name(), max_exponent,
///   decode_positive(uint64)  -> Unpacked (for payloads in (0, 2^(n-1))),
///   encode_positive(e, m, guard, sticky) -> payload in [1, 2^(n-1)-1],
///   frac_bits(e) -> fraction bits kept in binade e (negative: the
///                   exponent prefix itself is cut by the width).
template <class Codec>
class TaperedFloat {
 public:
  using Storage = typename Codec::Storage;
  using Decoded = mfla::Decoded;
  static constexpr int kBits = Codec::nbits;
  static constexpr Storage kNaRBits = static_cast<Storage>(std::uint64_t{1} << (kBits - 1));
  static constexpr std::uint64_t kMask =
      (kBits >= 64) ? ~0ull : ((std::uint64_t{1} << kBits) - 1);
  /// Significant bits at the format's best point (binades 2^-1 and 2^0).
  static constexpr int kPrecision = Codec::frac_bits(0) + 1;
  /// Do the kernels and the bulge chase run in the decoded domain? The
  /// 8-bit formats' operators are single table loads already.
  static constexpr bool kDecodedDomain = kBits >= 16;

  constexpr TaperedFloat() noexcept : bits_(0) {}
  TaperedFloat(double d) noexcept : bits_(from_double(d).bits_) {}
  TaperedFloat(int i) noexcept : TaperedFloat(static_cast<double>(i)) {}

  [[nodiscard]] static constexpr TaperedFloat from_bits(Storage b) noexcept {
    TaperedFloat r;
    r.bits_ = static_cast<Storage>(b & kMask);
    return r;
  }
  [[nodiscard]] constexpr Storage bits() const noexcept { return bits_; }

  [[nodiscard]] static constexpr TaperedFloat nar() noexcept { return from_bits(kNaRBits); }
  [[nodiscard]] static constexpr TaperedFloat zero() noexcept { return from_bits(0); }
  [[nodiscard]] static constexpr TaperedFloat max_positive() noexcept {
    return from_bits(static_cast<Storage>(kNaRBits - 1));
  }
  [[nodiscard]] static constexpr TaperedFloat min_positive() noexcept { return from_bits(Storage{1}); }

  [[nodiscard]] constexpr bool is_nar() const noexcept { return bits_ == kNaRBits; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return bits_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const noexcept {
    return !is_nar() && (bits_ >> (kBits - 1)) != 0;
  }

  // -- Conversions ---------------------------------------------------------
  [[nodiscard]] static TaperedFloat from_double(double d) noexcept {
    const DoubleParts p = decompose_double(d);
    if (p.nan || p.inf) return nar();
    if (p.zero) return zero();
    // |d| = sig * 2^(p.e), sig in [2^52, 2^53); re-anchor at 64 bits.
    const std::uint64_t m = p.sig << 11;
    const int e = p.e + 52;
    return make(p.neg, e, m, false, false);
  }

  /// The value as a double: one table load for 8- and 16-bit formats.
  [[nodiscard]] double to_double() const noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().decode(bits_);
    else if constexpr (kDec16) return Dec16<TaperedFloat>::instance().decode(bits_);
    else return to_double_exact();
  }

  [[nodiscard]] double to_double_exact() const noexcept {
    if (is_nar()) return __builtin_nan("");
    if (is_zero()) return 0.0;
    const Unpacked u = unpack_exact();
    return compose_double(u.neg, u.m, u.e - 63);
  }

  explicit operator double() const noexcept { return to_double(); }
  explicit operator float() const noexcept { return static_cast<float>(to_double()); }

  /// Decode to sign/exponent/significand (finite non-zero values only): one
  /// table load for 16-bit formats.
  [[nodiscard]] Unpacked unpack() const noexcept {
    if constexpr (kDec16) return Dec16<TaperedFloat>::instance().unpacked(bits_);
    else return unpack_exact();
  }

  [[nodiscard]] Unpacked unpack_exact() const noexcept {
    std::uint64_t p = bits_;
    bool neg = false;
    if ((p >> (kBits - 1)) & 1) {
      neg = true;
      p = (~p + 1) & kMask;  // two's complement within kBits
    }
    Unpacked u = Codec::decode_positive(p);
    u.neg = neg;
    return u;
  }

  /// Round and pack a finite non-zero result (the codec's closed-form
  /// encode, with saturation).
  [[nodiscard]] static TaperedFloat make(bool neg, int e, std::uint64_t m, bool guard,
                                         bool sticky) noexcept {
    const Storage payload = Codec::encode_positive(e, m, guard, sticky);
    if (!neg) return from_bits(payload);
    return from_bits(static_cast<Storage>((~payload + 1) & kMask));
  }

  // -- Decoded domain ------------------------------------------------------
  [[gnu::always_inline]] [[nodiscard]] static Decoded decode(TaperedFloat a) noexcept {
    if (a.is_zero()) return {};
    if (a.is_nar()) return Decoded::nar();
    return Decoded::of(a.unpack());
  }

  /// Encode a decoded value of this format (exact: nothing is rounded).
  [[nodiscard]] static TaperedFloat encode(const Decoded& d) noexcept {
    if (d.is_finite()) return make(d.u.neg, d.u.e, d.u.m, false, false);
    return d.kind == Decoded::Kind::nar ? nar() : zero();
  }

  /// decode(make(neg, e, m, guard, sticky)); see the header comment.
  [[gnu::always_inline]] [[nodiscard]] static Decoded round_decoded(bool neg, int e,
                                                                    std::uint64_t m, bool guard,
                                                                    bool sticky) noexcept {
    if (e >= kFastExp.lo && e <= kFastExp.hi) [[likely]] {
      // Ties-to-even at the cut, branch-free: guard and sticky fold into
      // bit 0 (the cut is at bit 2 or above, so they only break ties), and
      // adding half - 1 + lsb carries into the kept bits exactly when the
      // dropped part rounds up. A carry out of bit 63 leaves r == 0: the
      // significand became 2^(e+1).
      const int cut = 63 - Codec::frac_bits(e);  // dropped bits of m, in [2, 62]
      const std::uint64_t unit = std::uint64_t{1} << cut;
      const std::uint64_t lsb = (m >> cut) & 1;
      const std::uint64_t r = ((m | (guard | sticky)) + ((unit >> 1) - 1 + lsb)) & ~(unit - 1);
      if (r == 0) [[unlikely]] return Decoded::of({neg, e + 1, std::uint64_t{1} << 63});
      return Decoded::of({neg, e, r});
    }
    return decode(make(neg, e, m, guard, sticky));
  }

  [[gnu::always_inline]] [[nodiscard]] static Decoded add_decoded(const Decoded& a,
                                                                  const Decoded& b) noexcept {
    if (!a.is_finite() || !b.is_finite()) [[unlikely]] {
      if (a.kind == Decoded::Kind::nar || b.kind == Decoded::Kind::nar) return Decoded::nar();
      return a.is_finite() ? a : b;  // x + 0 = x, 0 + y = y
    }
    const detail::Unrounded r = add_core(a.u, b.u);
    if (r.m == 0) return {};
    return round_decoded(r);
  }

  [[gnu::always_inline]] [[nodiscard]] static Decoded mul_decoded(const Decoded& a,
                                                                  const Decoded& b) noexcept {
    if (!a.is_finite() || !b.is_finite()) [[unlikely]] {
      if (a.kind == Decoded::Kind::nar || b.kind == Decoded::Kind::nar) return Decoded::nar();
      return {};
    }
    return round_decoded(mul_core(a.u, b.u));
  }

  // -- Arithmetic ----------------------------------------------------------
  // The exact engine, by name: the table builders and tests call these.
  [[nodiscard]] static TaperedFloat add_exact(TaperedFloat a, TaperedFloat b) noexcept {
    return add<true>(a, b);
  }
  [[nodiscard]] static TaperedFloat sub_exact(TaperedFloat a, TaperedFloat b) noexcept {
    return add<true>(a, -b);
  }
  [[nodiscard]] static TaperedFloat mul_exact(TaperedFloat a, TaperedFloat b) noexcept {
    return mul<true>(a, b);
  }
  [[nodiscard]] static TaperedFloat div_exact(TaperedFloat a, TaperedFloat b) noexcept {
    return div<true>(a, b);
  }
  [[nodiscard]] static TaperedFloat sqrt_exact(TaperedFloat a) noexcept { return root<true>(a); }

  // The operators: table loads at 8 bits, the engine over table decodes at
  // 16 bits, the engine itself otherwise.
  friend TaperedFloat operator+(TaperedFloat a, TaperedFloat b) noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().add(a, b);
    else return add<false>(a, b);
  }
  friend TaperedFloat operator-(TaperedFloat a, TaperedFloat b) noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().add(a, -b);
    else return add<false>(a, -b);
  }
  friend TaperedFloat operator*(TaperedFloat a, TaperedFloat b) noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().mul(a, b);
    else return mul<false>(a, b);
  }
  friend TaperedFloat operator/(TaperedFloat a, TaperedFloat b) noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().div(a, b);
    else return div<false>(a, b);
  }
  [[nodiscard]] friend TaperedFloat sqrt(TaperedFloat a) noexcept {
    if constexpr (kLut8) return Lut8<TaperedFloat>::instance().sqrt(a);
    else return root<false>(a);
  }

  friend TaperedFloat operator-(TaperedFloat a) noexcept {
    return from_bits(static_cast<Storage>((~a.bits_ + 1) & kMask));
  }
  friend TaperedFloat operator+(TaperedFloat a) noexcept { return a; }

  TaperedFloat& operator+=(TaperedFloat o) noexcept { return *this = *this + o; }
  TaperedFloat& operator-=(TaperedFloat o) noexcept { return *this = *this - o; }
  TaperedFloat& operator*=(TaperedFloat o) noexcept { return *this = *this * o; }
  TaperedFloat& operator/=(TaperedFloat o) noexcept { return *this = *this / o; }

  [[nodiscard]] friend TaperedFloat abs(TaperedFloat a) noexcept {
    return a.is_negative() ? -a : a;
  }

  // -- Comparisons: total order via the signed encoding (NaR is smallest) --
  friend constexpr bool operator==(TaperedFloat a, TaperedFloat b) noexcept { return a.bits_ == b.bits_; }
  friend constexpr bool operator!=(TaperedFloat a, TaperedFloat b) noexcept { return a.bits_ != b.bits_; }
  friend constexpr bool operator<(TaperedFloat a, TaperedFloat b) noexcept {
    return signed_bits(a.bits_) < signed_bits(b.bits_);
  }
  friend constexpr bool operator>(TaperedFloat a, TaperedFloat b) noexcept { return b < a; }
  friend constexpr bool operator<=(TaperedFloat a, TaperedFloat b) noexcept { return !(b < a); }
  friend constexpr bool operator>=(TaperedFloat a, TaperedFloat b) noexcept { return !(a < b); }

  friend std::ostream& operator<<(std::ostream& os, TaperedFloat v) {
    if (v.is_nar()) return os << "NaR";
    return os << v.to_double();
  }

 private:
  [[nodiscard]] static constexpr std::int64_t signed_bits(Storage s) noexcept {
    using SignedStorage = std::make_signed_t<Storage>;
    return static_cast<std::int64_t>(static_cast<SignedStorage>(s));
  }

  static constexpr bool kLut8 = lut8_width(kBits);
  static constexpr bool kDec16 = dec16_width(kBits);

  static constexpr detail::ExpRange kFastExp = detail::fast_exponents<Codec>();

  [[nodiscard]] static TaperedFloat make(const detail::Unrounded& r) noexcept {
    return make(r.neg, r.e, r.m, r.guard, r.sticky);
  }
  [[gnu::always_inline]] [[nodiscard]] static Decoded round_decoded(
      const detail::Unrounded& r) noexcept {
    return round_decoded(r.neg, r.e, r.m, r.guard, r.sticky);
  }

  /// The operand decode of the operators: unpack_exact() inside the
  /// engine by name; behind the 16-bit operators, both operands from one
  /// fetch of the Dec16 table.
  template <bool kExact>
  [[nodiscard]] static std::array<Unpacked, 2> unpack_pair(TaperedFloat a,
                                                           TaperedFloat b) noexcept {
    if constexpr (kExact || !kDec16) {
      return {a.unpack_exact(), b.unpack_exact()};
    } else {
      const auto& t = Dec16<TaperedFloat>::instance();
      return {t.unpacked(a.bits_), t.unpacked(b.bits_)};
    }
  }

  // The cores: the exact result of finite non-zero operands, for one
  // rounding by make or round_decoded. Operands of this format carry at
  // most kPrecision significant bits (the low 64 - kPrecision bits of m are
  // zero), which is what lets the narrow formats use 64-bit words: the
  // result must be exact down to one bit below the widest fraction
  // (kPrecision - 1 bits), with everything further down folded into sticky.
  // The 64-bit add core (and round_decoded) are branch-free in the data:
  // signs, operand order and round-up decisions of random-signed sums are
  // unpredictable, and a mispredicted branch costs as much as the core.

  [[gnu::always_inline]] [[nodiscard]] static detail::Unrounded add_core(
      const Unpacked& a, const Unpacked& b) noexcept {
    // x is the operand of larger magnitude: (e, m) compared as one key.
    const bool swap = (static_cast<i128>(a.e) << 64 | a.m) < (static_cast<i128>(b.e) << 64 | b.m);
    const Unpacked& x = swap ? b : a;
    const int ye = swap ? a.e : b.e;
    const std::uint64_t ym = swap ? a.m : b.m;
    const bool effective_sub = a.neg != b.neg;
    if constexpr (kPrecision <= 60) {
      // x.m >> 2 is exact and leaves bit 63 for the carry. A sticky tail
      // needs an exponent gap >= 3, so the difference keeps its leading
      // bit at 60 or above: 60 exact fraction bits, one more than the
      // widest fraction. Shifting the 62-bit ym >> 2 by 63 already loses
      // every bit, so the gap is clamped there.
      const std::uint64_t big = x.m >> 2;
      const int d = (x.e - ye < 63) ? x.e - ye : 63;
      const std::uint64_t y2 = ym >> 2;
      const bool sticky = (y2 & ((std::uint64_t{1} << d) - 1)) != 0;
      const std::uint64_t small = y2 >> d;
      // With a sticky tail the true difference is strictly below big -
      // small: borrow one ulp so guard/sticky classification stays exact.
      const std::uint64_t neg_mask = std::uint64_t{0} - effective_sub;
      const std::uint64_t r = big + ((small ^ neg_mask) - neg_mask) - (effective_sub & sticky);
      if (r == 0) return {};
      const int t = 63 - clz_u64(r);
      return {x.neg, x.e - 61 + t, r << (63 - t), false, sticky};
    } else {
      bool sticky = false;
      const u128 big = static_cast<u128>(x.m) << 63;  // headroom bit 127 free
      const u128 small = shift_right_sticky(static_cast<u128>(ym) << 63, x.e - ye, sticky);
      u128 r = effective_sub ? big - small - (sticky ? 1 : 0) : big + small;
      if (r == 0) return {};
      const int t = 127 - clz_u128(r);
      r <<= (127 - t);
      return {x.neg, x.e - 126 + t, static_cast<std::uint64_t>(r >> 64),
              ((static_cast<std::uint64_t>(r) >> 63) & 1) != 0,
              sticky || (static_cast<std::uint64_t>(r) & ((1ull << 63) - 1)) != 0};
    }
  }

  [[gnu::always_inline]] [[nodiscard]] static detail::Unrounded mul_core(
      const Unpacked& x, const Unpacked& y) noexcept {
    const bool neg = x.neg != y.neg;
    if constexpr (kPrecision <= 32) {
      // Two <= 32-bit significands: the product is exact in one word.
      const std::uint64_t prod = (x.m >> 32) * (y.m >> 32);  // in [2^62, 2^64)
      const int t = 63 - clz_u64(prod);
      return {neg, x.e + y.e - 62 + t, prod << (63 - t), false, false};
    } else {
      u128 prod = static_cast<u128>(x.m) * y.m;  // in [2^126, 2^128)
      const int t = 127 - clz_u128(prod);
      prod <<= (127 - t);
      const auto lo = static_cast<std::uint64_t>(prod);
      return {neg, x.e + y.e - 126 + t, static_cast<std::uint64_t>(prod >> 64),
              ((lo >> 63) & 1) != 0, (lo & ((1ull << 63) - 1)) != 0};
    }
  }

  [[nodiscard]] static detail::Unrounded div_core(const Unpacked& x, const Unpacked& y) noexcept {
    const bool neg = x.neg != y.neg;
    if constexpr (kPrecision <= 31) {
      // x.m / (y.m >> 32) in (2^31, 2^33): at least 31 exact fraction bits,
      // and the remainder is the sticky tail.
      const std::uint64_t d = y.m >> 32;
      const std::uint64_t q = x.m / d;
      const int t = 63 - clz_u64(q);
      return {neg, x.e - y.e - 32 + t, q << (63 - t), false, x.m % d != 0};
    } else {
      const u128 num = static_cast<u128>(x.m) << 64;
      u128 q = num / y.m;  // in (2^63, 2^65)
      const bool rem = num % y.m != 0;
      const int t = 127 - clz_u128(q);
      q <<= (127 - t);
      const auto lo = static_cast<std::uint64_t>(q);
      return {neg, x.e - y.e - 64 + t, static_cast<std::uint64_t>(q >> 64),
              ((lo >> 63) & 1) != 0, (lo & ((1ull << 63) - 1)) != 0 || rem};
    }
  }

  [[nodiscard]] static detail::Unrounded root_core(const Unpacked& x) noexcept {
    // Make the exponent even (works for negative odd e too: (e & 1) == 1).
    const bool odd = (x.e & 1) != 0;
    const int e = (odd ? x.e - 1 : x.e) / 2;
    if constexpr (kPrecision <= 31) {
      // sqrt(m·2^64) = sqrt(n)·2^32 with n = m (odd e) or m/2 (even e, m
      // is even): the 32-bit root has 31 exact fraction bits.
      const std::uint64_t n = odd ? x.m : x.m >> 1;
      const std::uint64_t s = isqrt_u64(n);
      return {false, e, s << 32, false, s * s != n};
    } else {
      const u128 n = (odd ? static_cast<u128>(x.m) << 1 : static_cast<u128>(x.m)) << 63;
      const std::uint64_t s = isqrt_u128(n);
      return {false, e, s, false, n - static_cast<u128>(s) * s != 0};
    }
  }

  // The operators: special cases, then a core, then make.
  template <bool kExact>
  [[nodiscard]] static TaperedFloat add(TaperedFloat a, TaperedFloat b) noexcept {
    if (a.is_nar() || b.is_nar()) return nar();
    if (a.is_zero()) return b;
    if (b.is_zero()) return a;
    const auto [x, y] = unpack_pair<kExact>(a, b);
    const detail::Unrounded r = add_core(x, y);
    if (r.m == 0) return zero();
    return make(r);
  }

  template <bool kExact>
  [[nodiscard]] static TaperedFloat mul(TaperedFloat a, TaperedFloat b) noexcept {
    if (a.is_nar() || b.is_nar()) return nar();
    if (a.is_zero() || b.is_zero()) return zero();
    const auto [x, y] = unpack_pair<kExact>(a, b);
    return make(mul_core(x, y));
  }

  template <bool kExact>
  [[nodiscard]] static TaperedFloat div(TaperedFloat a, TaperedFloat b) noexcept {
    if (a.is_nar() || b.is_nar() || b.is_zero()) return nar();
    if (a.is_zero()) return zero();
    const auto [x, y] = unpack_pair<kExact>(a, b);
    return make(div_core(x, y));
  }

  template <bool kExact>
  [[nodiscard]] static TaperedFloat root(TaperedFloat a) noexcept {
    if (a.is_nar() || a.is_zero()) return a;
    if (a.is_negative()) return nar();
    return make(root_core(kExact ? a.unpack_exact() : a.unpack()));
  }

  Storage bits_;
};

/// Formats with a decoded domain (the >=16-bit posits and takums).
template <typename T>
concept DecodedArithmetic = requires { typename T::Decoded; } && T::kDecodedDomain;

template <class Codec>
[[nodiscard]] constexpr bool is_number(TaperedFloat<Codec> x) noexcept {
  return !x.is_nar();
}

}  // namespace mfla
