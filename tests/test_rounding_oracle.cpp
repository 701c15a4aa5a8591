// Decode-only correct-rounding oracle.
//
// Checks that the emulated +, -, *, / and sqrt — the exact engines by name
// (add_exact, ...) and the table-backed operators alike — return the
// correctly rounded result, using nothing of the format but its decoder: the oracle never
// calls from_double or encode_positive, so it does not share code with the
// encoders it judges.
//
// For each operation the exact result X is compared against candidate
// values in exact integer arithmetic: sums are formed in a wide fixed-point
// integer, and X = a/b or X = sqrt(a) is compared with c through a vs b*c or
// a vs c*c (the sign of the remainder). The two representable neighbours of
// X are found by binary search over the monotone positive encodings, and
// the result is picked by the format's rounding rule:
//
//  * posit/takum round on the encoding: between payloads p and p+1 the
//    midpoint is the value of the (N+1)-bit pattern 2p+1, ties go to the
//    even payload, results saturate at maxpos and minpos (never NaR, never
//    zero);
//  * the minifloats round to nearest, ties to even, in IEEE fashion:
//    overflow gives inf (or NaN in E4M3, which has no inf), underflow a
//    signed zero, and specials follow IEEE 754.
//
// Coverage: every operand pair of +, -, *, / for posit8, takum8, OFP8 E4M3
// and E5M2; seeded random and near-cancelling pairs for posit16, takum16,
// float16 and bfloat16; every operand of sqrt for all eight formats; seeded
// sqrt operands, biased to minpos/maxpos and powers of two, for posit32,
// takum32 and posit32 with es 0 and 1.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>

#include "arith/posit.hpp"
#include "arith/softfloat.hpp"
#include "arith/takum.hpp"

namespace mfla {
namespace {

// ---- Exact arithmetic ----------------------------------------------------

/// A dyadic value sig * 2^lsb (sign handled by the callers).
struct Dyadic {
  std::uint64_t sig = 0;
  int lsb = 0;
};

Dyadic normalized(std::uint64_t sig, int lsb) {
  if (sig == 0) return {0, 0};
  const int tz = __builtin_ctzll(sig);
  return {sig >> tz, lsb + tz};
}

/// Exact product; callers keep the significands below 2^32 each.
Dyadic times(Dyadic a, Dyadic b) { return normalized(a.sig * b.sig, a.lsb + b.lsb); }

/// Two's-complement fixed-point integer whose bits weigh 2^-kLsb up to
/// 2^(64 * kWords - kLsb - 1): wide enough for every sum and product of two
/// values (or midpoints) of the formats here.
class Fixed {
 public:
  static constexpr int kWords = 24;
  static constexpr int kLsb = 768;

  Fixed() { w_.fill(0); }
  Fixed(Dyadic d, bool neg) : Fixed() {
    if (d.sig != 0) {
      const int off = d.lsb + kLsb;
      EXPECT_GE(off, 0);
      EXPECT_LE(off + 64, kWords * 64 - 1);
      const int word = off / 64, bit = off % 64;
      w_[word] = d.sig << bit;
      if (bit != 0) w_[word + 1] = d.sig >> (64 - bit);
    }
    if (neg) *this = -*this;
  }

  friend Fixed operator+(const Fixed& a, const Fixed& b) {
    Fixed r;
    unsigned carry = 0;
    for (int i = 0; i < kWords; ++i) {
      const u128 s = static_cast<u128>(a.w_[i]) + b.w_[i] + carry;
      r.w_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
    return r;
  }
  friend Fixed operator-(const Fixed& a) {
    Fixed r;
    for (int i = 0; i < kWords; ++i) r.w_[i] = ~a.w_[i];
    Fixed one;
    one.w_[0] = 1;
    return r + one;
  }

  [[nodiscard]] bool negative() const { return (w_[kWords - 1] >> 63) != 0; }
  [[nodiscard]] bool zero() const {
    for (const std::uint64_t x : w_) {
      if (x != 0) return false;
    }
    return true;
  }
  [[nodiscard]] Fixed abs() const { return negative() ? -*this : *this; }

  /// Three-way comparison of two non-negative values.
  friend int compare(const Fixed& a, const Fixed& b) {
    for (int i = kWords - 1; i >= 0; --i) {
      if (a.w_[i] != b.w_[i]) return a.w_[i] < b.w_[i] ? -1 : 1;
    }
    return 0;
  }

 private:
  std::array<std::uint64_t, kWords> w_;
};

/// Sign of |X| - c for a candidate c, as a function of c.
using CompareAbs = std::function<int(Dyadic)>;

// ---- Format adapters -----------------------------------------------------
// Each adapter decodes one positive encoding to a Dyadic; the oracle picks
// among encodings and never encodes a value itself.

template <class Codec, class MidCodec>
struct TaperedFormat {
  using T = TaperedFloat<Codec>;
  using Storage = typename T::Storage;
  static constexpr int kBits = Codec::nbits;
  static constexpr int kMaxExp = Codec::max_exponent;
  static constexpr std::uint64_t kMaxPos = (std::uint64_t{1} << (kBits - 1)) - 1;

  static Dyadic value(std::uint64_t p) {
    const Unpacked u = Codec::decode_positive(p);
    return normalized(u.m, u.e - 63);
  }
  /// Rounding midpoint between payloads p and p+1: the (N+1)-bit pattern 2p+1.
  static Dyadic midpoint(std::uint64_t p) {
    const Unpacked u = MidCodec::decode_positive(2 * p + 1);
    return normalized(u.m, u.e - 63);
  }
};

template <class T>
struct MiniFormat {
  static constexpr int M = T::kManBits;
  /// Value of a positive encoding read as finite, which also gives the
  /// pattern just past max_finite the value the exponent range implies.
  static Dyadic value(std::uint64_t b) {
    const std::uint64_t be = b >> M, mf = b & ((1u << M) - 1);
    if (be == 0) return normalized(mf, T::kEmin - M);
    return normalized((1ull << M) | mf, static_cast<int>(be) - T::kBias - M);
  }
  static Dyadic midpoint(std::uint64_t b) {
    const Dyadic lo = value(b), hi = value(b + 1);
    if (lo.sig == 0) return normalized(hi.sig, hi.lsb - 1);
    const int l = lo.lsb < hi.lsb ? lo.lsb : hi.lsb;
    return normalized((lo.sig << (lo.lsb - l)) + (hi.sig << (hi.lsb - l)), l - 1);
  }
};

/// Largest encoding p in [lo, hi] with value(p) <= |X|; value(lo) <= |X|.
template <class F>
std::uint64_t floor_encoding(std::uint64_t lo, std::uint64_t hi, const CompareAbs& cmp) {
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (cmp(F::value(mid)) >= 0) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Rounds between p and p+1 by the midpoint; ties to the even encoding.
template <class F>
std::uint64_t round_between(std::uint64_t p, const CompareAbs& cmp) {
  if (cmp(F::value(p)) == 0) return p;
  const int c = cmp(F::midpoint(p));
  if (c > 0) return p + 1;
  if (c < 0) return p;
  return (p & 1) ? p + 1 : p;
}

// ---- Tapered oracle ------------------------------------------------------

template <class F>
struct TaperedOracle {
  using Format = F;
  using T = typename F::T;
  using Storage = typename F::Storage;

  enum class Kind { nar, zero, finite };
  struct Decoded {
    Kind kind;
    bool neg = false;
    Dyadic mag;
  };

  static Decoded decode(T x) {
    if (x.is_nar()) return {Kind::nar, false, {}};
    if (x.is_zero()) return {Kind::zero, false, {}};
    const bool neg = x.is_negative();
    const std::uint64_t p = (neg ? -x : x).bits();
    return {Kind::finite, neg, F::value(p)};
  }

  /// Correctly rounded encoding of a finite non-zero X.
  static T round(bool neg, const CompareAbs& cmp) {
    std::uint64_t p;
    if (cmp(F::value(1)) < 0) {
      p = 1;  // below minpos: clamp, never zero
    } else {
      p = floor_encoding<F>(1, F::kMaxPos, cmp);
      if (p < F::kMaxPos) p = round_between<F>(p, cmp);  // else saturate
    }
    const T r = T::from_bits(static_cast<Storage>(p));
    return neg ? -r : r;
  }

  static T add(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    if (x.kind == Kind::nar || y.kind == Kind::nar) return T::nar();
    if (x.kind == Kind::zero) return b;
    if (y.kind == Kind::zero) return a;
    const Fixed s = Fixed(x.mag, x.neg) + Fixed(y.mag, y.neg);
    if (s.zero()) return T::zero();
    const Fixed mag = s.abs();
    return round(s.negative(), [&](Dyadic c) { return compare(mag, Fixed(c, false)); });
  }

  static T mul(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    if (x.kind == Kind::nar || y.kind == Kind::nar) return T::nar();
    if (x.kind == Kind::zero || y.kind == Kind::zero) return T::zero();
    const Fixed mag(times(x.mag, y.mag), false);
    return round(x.neg != y.neg, [&](Dyadic c) { return compare(mag, Fixed(c, false)); });
  }

  static T div(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    if (x.kind == Kind::nar || y.kind == Kind::nar || y.kind == Kind::zero) return T::nar();
    if (x.kind == Kind::zero) return T::zero();
    const Fixed num(x.mag, false);
    return round(x.neg != y.neg,
                 [&](Dyadic c) { return compare(num, Fixed(times(y.mag, c), false)); });
  }

  static T sqrt(T a) {
    const Decoded x = decode(a);
    if (x.kind == Kind::nar || (x.kind == Kind::finite && x.neg)) return T::nar();
    if (x.kind == Kind::zero) return T::zero();
    const Fixed v(x.mag, false);
    return round(false, [&](Dyadic c) { return compare(v, Fixed(times(c, c), false)); });
  }

  static bool same(T got, T want) { return got.bits() == want.bits(); }
};

// ---- Minifloat oracle ----------------------------------------------------

template <class S>
struct MiniOracle {
  using T = S;
  using F = MiniFormat<T>;
  using Storage = typename T::Storage;
  static constexpr bool kHasInf = T::kFlavor == Flavor::ieee;
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << (T::kBits - 1);

  enum class Kind { nan, inf, zero, finite };
  struct Decoded {
    Kind kind;
    bool neg;
    Dyadic mag;
  };

  static Decoded decode(T x) {
    const bool neg = x.signbit();
    if (x.is_nan()) return {Kind::nan, neg, {}};
    if (x.is_inf()) return {Kind::inf, neg, {}};
    if (x.is_zero()) return {Kind::zero, neg, {}};
    return {Kind::finite, neg, F::value(x.bits() & (kSignBit - 1))};
  }

  static T with_sign(std::uint64_t mag_bits, bool neg) {
    return T::from_bits(static_cast<Storage>(mag_bits | (neg ? kSignBit : 0)));
  }
  static T inf(bool neg) {
    if constexpr (kHasInf) {
      return with_sign(T::infinity().bits(), neg);
    } else {
      return T::nan();  // no infinity: overflow and x/0 give NaN
    }
  }
  static T zero(bool neg) { return with_sign(0, neg); }

  /// Round to nearest, ties to even, of a finite non-zero X.
  static T round(bool neg, const CompareAbs& cmp) {
    const std::uint64_t top = T::max_finite().bits();
    const std::uint64_t p = round_between<F>(floor_encoding<F>(0, top, cmp), cmp);
    if (p > top) return inf(neg);  // rounded past max_finite
    return with_sign(p, neg);
  }

  static T add(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    if (x.kind == Kind::nan || y.kind == Kind::nan) return T::nan();
    if (x.kind == Kind::inf && y.kind == Kind::inf) return x.neg == y.neg ? a : T::nan();
    if (x.kind == Kind::inf) return a;
    if (y.kind == Kind::inf) return b;
    if (x.kind == Kind::zero && y.kind == Kind::zero) return zero(x.neg && y.neg);
    if (x.kind == Kind::zero) return b;
    if (y.kind == Kind::zero) return a;
    const Fixed s = Fixed(x.mag, x.neg) + Fixed(y.mag, y.neg);
    if (s.zero()) return zero(false);  // exact cancellation: +0 under RNE
    const Fixed mag = s.abs();
    return round(s.negative(), [&](Dyadic c) { return compare(mag, Fixed(c, false)); });
  }

  static T mul(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    const bool neg = x.neg != y.neg;
    if (x.kind == Kind::nan || y.kind == Kind::nan) return T::nan();
    if (x.kind == Kind::inf || y.kind == Kind::inf) {
      if (x.kind == Kind::zero || y.kind == Kind::zero) return T::nan();
      return inf(neg);
    }
    if (x.kind == Kind::zero || y.kind == Kind::zero) return zero(neg);
    const Fixed mag(times(x.mag, y.mag), false);
    return round(neg, [&](Dyadic c) { return compare(mag, Fixed(c, false)); });
  }

  static T div(T a, T b) {
    const Decoded x = decode(a), y = decode(b);
    const bool neg = x.neg != y.neg;
    if (x.kind == Kind::nan || y.kind == Kind::nan) return T::nan();
    if (x.kind == Kind::inf) return y.kind == Kind::inf ? T::nan() : inf(neg);
    if (y.kind == Kind::inf) return zero(neg);
    if (y.kind == Kind::zero) return x.kind == Kind::zero ? T::nan() : inf(neg);
    if (x.kind == Kind::zero) return zero(neg);
    const Fixed num(x.mag, false);
    return round(neg, [&](Dyadic c) { return compare(num, Fixed(times(y.mag, c), false)); });
  }

  static T sqrt(T a) {
    const Decoded x = decode(a);
    if (x.kind == Kind::nan) return T::nan();
    if (x.kind == Kind::zero) return a;  // sqrt(-0) = -0
    if (x.neg) return T::nan();
    if (x.kind == Kind::inf) return a;
    const Fixed v(x.mag, false);
    return round(false, [&](Dyadic c) { return compare(v, Fixed(times(c, c), false)); });
  }

  static bool same(T got, T want) {
    return want.is_nan() ? got.is_nan() : got.bits() == want.bits();
  }
};

// ---- Sweeps --------------------------------------------------------------

/// Checks a op b for all four binary ops; counts and reports mismatches.
template <class O>
void check_binary_ops(std::uint32_t a, std::uint32_t b, int& bad) {
  using T = typename O::T;
  using Storage = typename T::Storage;
  const T x = T::from_bits(static_cast<Storage>(a));
  const T y = T::from_bits(static_cast<Storage>(b));
  const auto check = [&](const char* op, T got, T want) {
    if (!O::same(got, want) && ++bad <= 8) {
      ADD_FAILURE() << "0x" << std::hex << a << ' ' << op << " 0x" << b << ": got 0x"
                    << +got.bits() << ", correctly rounded 0x" << +want.bits();
    }
  };
  // The exact engine by name, and the operators (table-backed at 8 and 16
  // bits) on top of it.
  const T sum = O::add(x, y), diff = O::add(x, -y), prod = O::mul(x, y), quot = O::div(x, y);
  check("+", T::add_exact(x, y), sum);
  check("-", T::sub_exact(x, y), diff);
  check("*", T::mul_exact(x, y), prod);
  check("/", T::div_exact(x, y), quot);
  check("+", x + y, sum);
  check("-", x - y, diff);
  check("*", x * y, prod);
  check("/", x / y, quot);
}

template <class O>
void exhaustive_binary_ops() {
  constexpr std::uint32_t kCount = 1u << O::T::kBits;
  int bad = 0;
  for (std::uint32_t a = 0; a < kCount; ++a) {
    for (std::uint32_t b = 0; b < kCount; ++b) check_binary_ops<O>(a, b, bad);
  }
  EXPECT_EQ(bad, 0);
}

/// Seeded random 16-bit pairs. Every other pair puts b within a few
/// encodings of a or of -a, so near-cancelling sums, near-1 quotients and
/// the neighbourhoods of zero, NaR/NaN and the extremes get exercised.
template <class O>
void random_binary_ops(std::uint64_t seed) {
  constexpr std::uint32_t kMask = (1u << O::T::kBits) - 1;
  std::mt19937_64 rng(seed);
  int bad = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng()) & kMask;
    auto b = static_cast<std::uint32_t>(rng()) & kMask;
    if (i & 1) {
      using Storage = typename O::T::Storage;
      const auto x = O::T::from_bits(static_cast<Storage>(a));
      const std::uint32_t near = (i & 2) ? a : (-x).bits();
      b = (near + static_cast<std::uint32_t>(rng() % 9) - 4) & kMask;
    }
    check_binary_ops<O>(a, b, bad);
  }
  EXPECT_EQ(bad, 0);
}

template <class O>
void check_sqrt(std::uint64_t a, int& bad) {
  using T = typename O::T;
  using Storage = typename T::Storage;
  const T x = T::from_bits(static_cast<Storage>(a));
  const T want = O::sqrt(x);
  for (const T got : {T::sqrt_exact(x), sqrt(x)}) {
    if (!O::same(got, want) && ++bad <= 8) {
      ADD_FAILURE() << "sqrt(0x" << std::hex << a << "): got 0x" << +got.bits()
                    << ", correctly rounded 0x" << +want.bits();
    }
  }
}

template <class O>
void exhaustive_sqrt() {
  int bad = 0;
  for (std::uint32_t a = 0; a < (1u << O::T::kBits); ++a) check_sqrt<O>(a, bad);
  EXPECT_EQ(bad, 0);
}

/// Seeded √ operands of a 32-bit tapered format: uniform encodings, the
/// neighbourhoods of minpos and maxpos, and encodings within two of a power
/// of two (regime/characteristic boundaries, both exponent parities).
template <class O>
void sampled_sqrt(std::uint64_t seed) {
  using T = typename O::T;
  constexpr int kMaxExp = O::Format::kMaxExp;
  std::mt19937_64 rng(seed);
  int bad = 0;
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t a = rng();
    if (i % 4 == 1) a = 1 + rng() % 64;
    if (i % 4 == 2) a = (T::kNaRBits - 1) - rng() % 64;
    if (i % 4 == 3) {
      const int e = static_cast<int>(rng() % (2 * kMaxExp + 1)) - kMaxExp;
      a = T(std::ldexp(1.0, e)).bits() + rng() % 5 - 2;
    }
    check_sqrt<O>(a & T::kMask, bad);
  }
  EXPECT_EQ(bad, 0);
}

using P8 = TaperedOracle<TaperedFormat<PositCodec<8>, PositCodec<9>>>;
using T8 = TaperedOracle<TaperedFormat<TakumCodec<8>, TakumCodec<9>>>;
using P16 = TaperedOracle<TaperedFormat<PositCodec<16>, PositCodec<17>>>;
using T16 = TaperedOracle<TaperedFormat<TakumCodec<16>, TakumCodec<17>>>;
using P32 = TaperedOracle<TaperedFormat<PositCodec<32>, PositCodec<33>>>;
using T32 = TaperedOracle<TaperedFormat<TakumCodec<32>, TakumCodec<33>>>;

TEST(RoundingOracle, Posit8AllPairs) { exhaustive_binary_ops<P8>(); }
TEST(RoundingOracle, Takum8AllPairs) { exhaustive_binary_ops<T8>(); }
TEST(RoundingOracle, E4M3AllPairs) { exhaustive_binary_ops<MiniOracle<OFP8E4M3>>(); }
TEST(RoundingOracle, E5M2AllPairs) { exhaustive_binary_ops<MiniOracle<OFP8E5M2>>(); }

TEST(RoundingOracle, SixteenBitRandomPairs) {
  random_binary_ops<P16>(1);
  random_binary_ops<T16>(2);
  random_binary_ops<MiniOracle<Float16>>(3);
  random_binary_ops<MiniOracle<BFloat16>>(4);
}

TEST(RoundingOracle, Sqrt8BitAll) {
  exhaustive_sqrt<P8>();
  exhaustive_sqrt<T8>();
  exhaustive_sqrt<MiniOracle<OFP8E4M3>>();
  exhaustive_sqrt<MiniOracle<OFP8E5M2>>();
}

TEST(RoundingOracle, Sqrt16BitAll) {
  exhaustive_sqrt<P16>();
  exhaustive_sqrt<T16>();
  exhaustive_sqrt<MiniOracle<Float16>>();
  exhaustive_sqrt<MiniOracle<BFloat16>>();
}

// The 32-bit formats take a 64-bit integer root; the oracle squares each
// candidate exactly (significands below 2^32).
TEST(RoundingOracle, Sqrt32BitSampled) {
  sampled_sqrt<P32>(5);
  sampled_sqrt<T32>(6);
  sampled_sqrt<TaperedOracle<TaperedFormat<PositCodec<32, 0>, PositCodec<33, 0>>>>(7);
  sampled_sqrt<TaperedOracle<TaperedFormat<PositCodec<32, 1>, PositCodec<33, 1>>>>(8);
}

}  // namespace
}  // namespace mfla
