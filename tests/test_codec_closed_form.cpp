// Identity tests for the closed-form scalar codecs.
//
// The tapered encoders (PositCodec/TakumCodec::encode_positive) lay the
// exponent prefix, the fraction and the guard bit out in one word and round
// once; SoftFloat converts to and from double straight on the bits. This
// file keeps the bit-serial implementations they replaced as references and
// checks the production codecs against them:
//
//  * tapered encode, 8 and 16 bits: every exponent within
//    ±(max_exponent + 4), every leading fraction pattern that can reach the
//    payload or the guard bit (plus two bits of rest), guard × sticky ×
//    a low-bit sticky variant, for posit es 0..4 and takum;
//  * tapered encode, 32 and 64 bits: the same exponent sweep with
//    structured fractions (zeros, ones, exact ties at the payload cut and
//    one unit either side) plus seeded random inputs;
//  * SoftFloat::from_double: every encoding, every midpoint, ±1 ulp around
//    each, double subnormals, huge and tiny powers of two, ±0, ±inf, NaN;
//  * SoftFloat/TaperedFloat::to_double: exhaustive for every format of 16
//    bits or fewer; compose_double against ldexp over the whole exponent
//    range.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "arith/posit.hpp"
#include "arith/softfloat.hpp"
#include "arith/takum.hpp"
#include "support/floatbits.hpp"

namespace mfla {
namespace {

// ---- Reference tapered encoder: bit-serial assembly ----------------------

/// Assembles an "infinitely precise" encoding from the top down into a
/// 128-bit accumulator; bits pushed past the bottom turn into sticky.
class BitBuilder {
 public:
  void put(std::uint64_t bits, int width) {
    if (width <= 0) return;
    if (width < 64) bits &= (1ull << width) - 1;
    pos_ -= width;
    if (pos_ >= 0) {
      acc_ |= static_cast<u128>(bits) << pos_;
      return;
    }
    const int below = -pos_;
    if (below >= width) {
      sticky_ = sticky_ || bits != 0;
      return;
    }
    acc_ |= static_cast<u128>(bits) >> below;
    const std::uint64_t lost = bits & ((below >= 64) ? ~0ull : ((1ull << below) - 1));
    sticky_ = sticky_ || lost != 0;
  }

  /// Rounds the top `nbits - 1` bits as the payload (RNE on the encoding,
  /// clamped to [1, maxpos]).
  [[nodiscard]] std::uint64_t round(int nbits, bool extra_sticky) const {
    const int width = nbits - 1;
    std::uint64_t p = static_cast<std::uint64_t>(acc_ >> (128 - width));
    const bool guard = (acc_ >> (128 - width - 1)) & 1;
    const bool rest = ((acc_ << (width + 1)) != 0) || sticky_ || extra_sticky;
    if (guard && (rest || (p & 1))) ++p;
    const std::uint64_t top = 1ull << (nbits - 1);
    if (p >= top) p = top - 1;
    if (p == 0) p = 1;
    return p;
  }

 private:
  u128 acc_ = 0;
  int pos_ = 128;
  bool sticky_ = false;
};

template <int N, int ES>
std::uint64_t ref_posit_encode(int e, std::uint64_t m, bool guard, bool sticky) {
  constexpr int kMaxExp = PositCodec<N, ES>::max_exponent;
  if (e >= kMaxExp) return (std::uint64_t{1} << (N - 1)) - 1;
  if (e < -kMaxExp) return 1;
  const int k = e >> ES;
  const auto ef = static_cast<std::uint64_t>(e - (k << ES));
  BitBuilder bb;
  if (k >= 0) {
    bb.put((2ull << (k + 1)) - 2, k + 2);
  } else {
    bb.put(1, -k + 1);
  }
  bb.put(ef, ES);
  bb.put(m & ((1ull << 63) - 1), 63);
  bb.put(guard ? 1 : 0, 1);
  return bb.round(N, sticky);
}

int bit_length(unsigned v) { return v == 0 ? 0 : 32 - __builtin_clz(v); }

/// Characteristic field width of a takum with exponent e (|e| <= 255).
int takum_cbits(int e) {
  return e >= 0 ? bit_length(static_cast<unsigned>(e) + 1) - 1
                : bit_length(static_cast<unsigned>(-e)) - 1;
}

template <int N>
std::uint64_t ref_takum_encode(int e, std::uint64_t m, bool guard, bool sticky) {
  if (e >= 255) return (std::uint64_t{1} << (N - 1)) - 1;
  if (e < -255) return 1;
  int d, rho;
  std::uint64_t c_field;
  const int cbits = takum_cbits(e);
  if (e >= 0) {
    d = 1;
    rho = cbits;
    c_field = static_cast<std::uint64_t>(e - ((1 << rho) - 1));
  } else {
    d = 0;
    rho = 7 - cbits;
    c_field = static_cast<std::uint64_t>(e + (1 << (8 - rho)) - 1);
  }
  BitBuilder bb;
  bb.put(static_cast<std::uint64_t>(d), 1);
  bb.put(static_cast<std::uint64_t>(rho), 3);
  bb.put(c_field, cbits);
  bb.put(m & ((1ull << 63) - 1), 63);
  bb.put(guard ? 1 : 0, 1);
  return bb.round(N, sticky);
}

// ---- Codec descriptors: production encoder, reference, prefix length ----

template <int N, int ES>
struct PositCase {
  using Codec = PositCodec<N, ES>;
  static constexpr int kBits = N;
  static constexpr int kMaxExp = Codec::max_exponent;
  static std::uint64_t encode(int e, std::uint64_t m, bool g, bool s) {
    return Codec::encode_positive(e, m, g, s);
  }
  static std::uint64_t reference(int e, std::uint64_t m, bool g, bool s) {
    return ref_posit_encode<N, ES>(e, m, g, s);
  }
  static int prefix_len(int e) {
    const int k = e >> ES;
    return ((k >= 0) ? k + 2 : 1 - k) + ES;
  }
};

template <int N>
struct TakumCase {
  using Codec = TakumCodec<N>;
  static constexpr int kBits = N;
  static constexpr int kMaxExp = Codec::max_exponent;
  static std::uint64_t encode(int e, std::uint64_t m, bool g, bool s) {
    return Codec::encode_positive(e, m, g, s);
  }
  static std::uint64_t reference(int e, std::uint64_t m, bool g, bool s) {
    return ref_takum_encode<N>(e, m, g, s);
  }
  static int prefix_len(int e) { return (e >= 255 || e < -255) ? 4 : 4 + takum_cbits(e); }
};

constexpr std::uint64_t kHidden = 1ull << 63;

/// Compares one input under every guard × sticky combination; returns the
/// number of mismatches (the first few are reported).
template <class C>
int check_encode(int e, std::uint64_t m, int& reported) {
  int bad = 0;
  for (int gs = 0; gs < 4; ++gs) {
    const bool g = gs & 1, s = gs & 2;
    const std::uint64_t got = C::encode(e, m, g, s);
    const std::uint64_t want = C::reference(e, m, g, s);
    if (got != want) {
      ++bad;
      if (reported++ < 5) {
        ADD_FAILURE() << C::Codec::name() << " e=" << e << " m=0x" << std::hex << m
                      << " g=" << g << " s=" << s << " got=0x" << got << " want=0x" << want;
      }
    }
  }
  return bad;
}

/// Exhaustive sweep for 8- and 16-bit codecs.
template <class C>
void exhaustive_encode() {
  int reported = 0, bad = 0;
  long long inputs = 0;
  for (int e = -C::kMaxExp - 4; e <= C::kMaxExp + 4; ++e) {
    // Fraction bits that can reach the payload or the guard, plus two bits
    // of rest; deeper bits only OR into the rest (the low-bit variant).
    int w = C::kBits - C::prefix_len(e) + 2;
    if (w < 2) w = 2;
    for (std::uint64_t f = 0; f < (std::uint64_t{1} << w); ++f) {
      const std::uint64_t lead = kHidden | (f << (63 - w));
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{1}}) {
        bad += check_encode<C>(e, lead | low, reported);
        inputs += 4;
      }
    }
  }
  EXPECT_EQ(bad, 0) << C::Codec::name() << " over " << inputs << " inputs";
}

TEST(ClosedFormEncode, Posit8Exhaustive) {
  exhaustive_encode<PositCase<8, 0>>();
  exhaustive_encode<PositCase<8, 1>>();
  exhaustive_encode<PositCase<8, 2>>();
  exhaustive_encode<PositCase<8, 3>>();
  exhaustive_encode<PositCase<8, 4>>();
}

TEST(ClosedFormEncode, Posit16Exhaustive) {
  exhaustive_encode<PositCase<16, 0>>();
  exhaustive_encode<PositCase<16, 1>>();
  exhaustive_encode<PositCase<16, 2>>();
  exhaustive_encode<PositCase<16, 3>>();
  exhaustive_encode<PositCase<16, 4>>();
}

TEST(ClosedFormEncode, TakumExhaustive) {
  exhaustive_encode<TakumCase<8>>();
  exhaustive_encode<TakumCase<16>>();
}

/// Structured and seeded random sweep for 32- and 64-bit codecs.
template <class C>
void structured_encode(std::uint64_t seed) {
  int reported = 0, bad = 0;
  long long inputs = 0;
  std::mt19937_64 rng(seed);
  const auto check = [&](int e, std::uint64_t frac) {
    bad += check_encode<C>(e, kHidden | (frac & ~kHidden), reported);
    inputs += 4;
  };
  for (int e = -C::kMaxExp - 4; e <= C::kMaxExp + 4; ++e) {
    check(e, 0);
    check(e, ~0ull);
    check(e, 0x5555555555555555ull);
    check(e, rng());
    // Exact ties at the payload cut (fraction bit `cut` is the first one
    // below the payload), both payload parities, one unit either side, and
    // the same around the neighbouring cuts.
    const int cut = C::kBits - 1 - C::prefix_len(e);
    for (int c = cut - 1; c <= cut + 1; ++c) {
      if (c < 0 || c > 62) continue;
      const std::uint64_t half = 1ull << (62 - c);
      for (const std::uint64_t odd : {std::uint64_t{0}, c >= 1 ? half << 1 : 0}) {
        check(e, odd | half);
        check(e, (odd | half) + 1);
        check(e, (odd | half) - 1);
      }
    }
  }
  for (int i = 0; i < 100000; ++i) {
    const int span = 2 * C::kMaxExp + 9;
    const int e = static_cast<int>(rng() % static_cast<std::uint64_t>(span)) - C::kMaxExp - 4;
    check(e, rng());
  }
  EXPECT_EQ(bad, 0) << C::Codec::name() << " over " << inputs << " inputs";
}

TEST(ClosedFormEncode, Posit32Structured) {
  structured_encode<PositCase<32, 0>>(1);
  structured_encode<PositCase<32, 1>>(2);
  structured_encode<PositCase<32, 2>>(3);
  structured_encode<PositCase<32, 3>>(4);
  structured_encode<PositCase<32, 4>>(5);
}

TEST(ClosedFormEncode, Posit64Structured) {
  structured_encode<PositCase<64, 0>>(6);
  structured_encode<PositCase<64, 1>>(7);
  structured_encode<PositCase<64, 2>>(8);
  structured_encode<PositCase<64, 3>>(9);
  structured_encode<PositCase<64, 4>>(10);
}

TEST(ClosedFormEncode, TakumWideStructured) {
  structured_encode<TakumCase<32>>(11);
  structured_encode<TakumCase<64>>(12);
}

// Widths between the study's four exercise the other word-size boundaries:
// posit<60, 4> is the widest posit on the 64-bit word, posit<61, 4> the
// narrowest on the 128-bit one, takum<63> the widest 64-bit-word takum.
TEST(ClosedFormEncode, WordBoundaryWidths) {
  structured_encode<PositCase<60, 4>>(13);
  structured_encode<PositCase<61, 4>>(14);
  structured_encode<TakumCase<63>>(15);
  exhaustive_encode<PositCase<4, 0>>();
  exhaustive_encode<PositCase<5, 4>>();
  exhaustive_encode<TakumCase<9>>();
}

// ---- Reference minifloat conversions ------------------------------------

/// The generic SoftFloat::from_double routine the bit-level conversion
/// replaced, with its biased exponent widened to int (the narrow Storage
/// version wrapped huge 8-bit-format inputs instead of overflowing).
template <class T>
typename T::Storage ref_from_double(double d) {
  using Storage = typename T::Storage;
  constexpr int E = T::kExpBits, M = T::kManBits;
  constexpr int kEmin = T::kEmin;
  constexpr Storage kSign = static_cast<Storage>(Storage{1} << (E + M));
  constexpr int kExpMask = (1 << E) - 1;
  const auto overflow = [](bool neg) -> Storage {
    if constexpr (T::kFlavor == Flavor::ieee) {
      const Storage inf = T::infinity().bits();
      return neg ? static_cast<Storage>(inf | kSign) : inf;
    } else {
      (void)neg;
      return T::nan().bits();
    }
  };
  const DoubleParts p = decompose_double(d);
  if (p.nan) return T::nan().bits();
  if (p.inf) return overflow(p.neg);
  const Storage zero = p.neg ? kSign : Storage{0};
  if (p.zero) return zero;
  const int et = p.e + 52;
  const int q = (et > kEmin ? et : kEmin) - M;
  const int shift = q - p.e;
  std::uint64_t t;
  bool round_bit = false, sticky = false;
  if (shift >= 64) {
    t = 0;
    sticky = p.sig != 0;
  } else {
    t = p.sig >> shift;
    round_bit = (shift >= 1) && ((p.sig >> (shift - 1)) & 1);
    sticky = (shift >= 2) && ((p.sig & ((1ull << (shift - 1)) - 1)) != 0);
  }
  if (round_bit && (sticky || (t & 1))) ++t;
  int e_out = (et > kEmin ? et : kEmin);
  if (t >= (1ull << (M + 1))) {
    t >>= 1;
    ++e_out;
  }
  if (t == 0) return zero;
  int be;
  std::uint64_t mf;
  if (t < (1ull << M)) {
    be = 0;
    mf = t;
  } else {
    be = e_out - kEmin + 1;
    mf = t - (1ull << M);
  }
  if constexpr (T::kFlavor == Flavor::ieee) {
    if (be >= kExpMask) return overflow(p.neg);
  } else {
    if (be > kExpMask || (be == kExpMask && mf >= (1ull << M) - 1)) return overflow(p.neg);
  }
  const auto out = static_cast<Storage>((static_cast<std::uint64_t>(be) << M) | mf);
  return p.neg ? static_cast<Storage>(out | kSign) : out;
}

/// The ldexp-based SoftFloat::to_double the bit-level conversion replaced.
template <class T>
double ref_to_double(T x) {
  constexpr int E = T::kExpBits, M = T::kManBits;
  const bool neg = x.signbit();
  const std::uint64_t be = (x.bits() >> M) & ((1u << E) - 1);
  const std::uint64_t mf = x.bits() & ((1u << M) - 1);
  if (x.is_nan()) return std::numeric_limits<double>::quiet_NaN();
  if (x.is_inf()) return neg ? -HUGE_VAL : HUGE_VAL;
  const double mag = (be == 0) ? std::ldexp(static_cast<double>(mf), T::kEmin - M)
                               : std::ldexp(static_cast<double>((1ull << M) | mf),
                                            static_cast<int>(be) + T::kEmin - 1 - M);
  return neg ? -mag : mag;
}

/// Bitwise double identity that treats every NaN as equal.
bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <class T>
int check_from_double(double d, int& reported) {
  const T got = T::from_double(d);
  const auto want = ref_from_double<T>(d);
  const bool ok = got.bits() == want;  // NaN results too: both give the canonical nan()
  if (!ok && reported++ < 5) {
    ADD_FAILURE() << "d=" << std::hexfloat << d << " got=0x" << std::hex << +got.bits()
                  << " want=0x" << +want;
  }
  return ok ? 0 : 1;
}

template <class T>
void from_double_identity() {
  int reported = 0, bad = 0;
  const auto probe = [&](double v) {
    for (const double s : {v, -v}) {
      bad += check_from_double<T>(s, reported);
      bad += check_from_double<T>(std::nextafter(s, HUGE_VAL), reported);
      bad += check_from_double<T>(std::nextafter(s, -HUGE_VAL), reported);
    }
  };
  // Every positive encoding up to the overflow pattern and the midpoint to
  // its successor (the pattern past max_finite is read as a finite value so
  // the overflow threshold is probed too).
  const auto value = [](std::uint64_t b) {
    constexpr int M = T::kManBits;
    const std::uint64_t be = b >> M, mf = b & ((1u << M) - 1);
    return be == 0 ? std::ldexp(static_cast<double>(mf), T::kEmin - M)
                   : std::ldexp(static_cast<double>((1ull << M) | mf),
                                static_cast<int>(be) + T::kEmin - 1 - M);
  };
  const std::uint64_t top = T::max_finite().bits();
  for (std::uint64_t b = 0; b <= top; ++b) {
    probe(value(b));
    probe((value(b) + value(b + 1)) / 2);
  }
  // Double subnormals, powers of two over the whole double range, specials.
  std::mt19937_64 rng(42);
  for (int i = 0; i < 64; ++i) probe(std::bit_cast<double>(rng() & ((1ull << 52) - 1)));
  probe(DBL_MIN);
  probe(DBL_MAX);
  probe(std::numeric_limits<double>::denorm_min());
  for (int e = -1074; e <= 1023; ++e) {
    probe(std::ldexp(1.0, e));
    probe(std::ldexp(1.5, e));
  }
  probe(0.0);
  probe(HUGE_VAL);
  bad += check_from_double<T>(std::numeric_limits<double>::quiet_NaN(), reported);
  bad += check_from_double<T>(-std::numeric_limits<double>::quiet_NaN(), reported);
  EXPECT_EQ(bad, 0);
}

template <class T>
void to_double_identity() {
  int bad = 0;
  for (std::uint32_t b = 0; b < (1u << T::kBits); ++b) {
    const T x = T::from_bits(static_cast<typename T::Storage>(b));
    if (!same_double(x.to_double(), ref_to_double(x))) {
      if (++bad <= 5) ADD_FAILURE() << "bits=0x" << std::hex << b;
    }
  }
  EXPECT_EQ(bad, 0);
}

// The study's four minifloats plus shapes at the template's edges: the
// narrowest exponent and mantissa fields, and a finite_nan layout other
// than E4M3.
using SoftFloat2_1 = SoftFloat<2, 1>;
using SoftFloat8_10 = SoftFloat<8, 10>;
using SoftFloat3_4Fn = SoftFloat<3, 4, Flavor::finite_nan>;

TEST(ClosedFormSoftFloat, FromDoubleMatchesGenericRounding) {
  from_double_identity<Float16>();
  from_double_identity<BFloat16>();
  from_double_identity<OFP8E4M3>();
  from_double_identity<OFP8E5M2>();
  from_double_identity<SoftFloat2_1>();
  from_double_identity<SoftFloat8_10>();
  from_double_identity<SoftFloat3_4Fn>();
}

TEST(ClosedFormSoftFloat, ToDoubleExhaustive) {
  to_double_identity<Float16>();
  to_double_identity<BFloat16>();
  to_double_identity<OFP8E4M3>();
  to_double_identity<OFP8E5M2>();
  to_double_identity<SoftFloat2_1>();
  to_double_identity<SoftFloat8_10>();
  to_double_identity<SoftFloat3_4Fn>();
}

// ---- Tapered to_double and compose_double --------------------------------

template <class T>
double ref_tapered_to_double(T x) {
  if (x.is_nar()) return std::numeric_limits<double>::quiet_NaN();
  if (x.is_zero()) return 0.0;
  const Unpacked u = x.unpack();
  const double mag = std::ldexp(static_cast<double>(u.m), u.e - 63);
  return u.neg ? -mag : mag;
}

template <class T>
void tapered_to_double_exhaustive() {
  int bad = 0;
  for (std::uint32_t b = 0; b < (1u << T::kBits); ++b) {
    const T x = T::from_bits(static_cast<typename T::Storage>(b));
    if (!same_double(x.to_double(), ref_tapered_to_double(x)) && ++bad <= 5) {
      ADD_FAILURE() << "bits=0x" << std::hex << b;
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(ClosedFormTapered, ToDoubleExhaustive) {
  tapered_to_double_exhaustive<Posit8>();
  tapered_to_double_exhaustive<Posit16>();
  tapered_to_double_exhaustive<Posit<16, 4>>();
  tapered_to_double_exhaustive<Takum8>();
  tapered_to_double_exhaustive<Takum16>();
}

TEST(ClosedFormTapered, ComposeDoubleMatchesLdexp) {
  std::mt19937_64 rng(7);
  int bad = 0;
  for (int e = -1250; e <= 1100; ++e) {
    for (int i = 0; i < 16; ++i) {
      std::uint64_t sig = rng();
      if (i == 0) sig = ~0ull;           // rounds up to 2^64
      if (i == 1) sig = 1ull << 63;      // exact power of two
      if (i == 2) sig >>= rng() % 64;    // short significands
      for (const bool neg : {false, true}) {
        const double want = neg ? -std::ldexp(static_cast<double>(sig), e)
                                : std::ldexp(static_cast<double>(sig), e);
        if (!same_double(compose_double(neg, sig, e), want) && ++bad <= 5) {
          ADD_FAILURE() << "sig=0x" << std::hex << sig << std::dec << " e=" << e;
        }
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace mfla
