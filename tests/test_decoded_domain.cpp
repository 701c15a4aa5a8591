// Oracle tests for the decoded domain of the tapered formats
// (arith/tapered.hpp).
//
// round_decoded(neg, e, m, guard, sticky) is defined as
// decode(make(neg, e, m, guard, sticky)): it rounds in place where it can
// and falls back to the encoder elsewhere. These tests compare the two for
//
//  * 16 bits (posit16, takum16, posit<16,0>, posit<16,1>), exhaustively
//    over the exponents: every e within ±(max_exponent + 4), every fraction
//    pattern of the kept bits, the bit below and two more (with and without
//    a low bit), single set bits at every position, carry runs of every
//    length, ties at the cut and one unit either side, every guard × sticky
//    and both signs;
//  * 32 and 64 bits (posit32, takum32, posit64, takum64, posit<32,0>,
//    posit<32,1>, posit<64,0>): the same structured significands at every
//    exponent, plus seeded random ones drawn with a bias toward the
//    regime/characteristic boundaries, the binades with 0 or 1 fraction
//    bits and the maxpos/minpos edges.
//
// The decoded ops are checked against the operators (which finish the same
// cores with make) on zero, NaR, saturating and seeded random operands, and
// encode(decode(x)) must give x back.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "arith/posit.hpp"
#include "arith/takum.hpp"

namespace mfla {
namespace {

constexpr std::uint64_t kHidden = 1ull << 63;

/// Compares round_decoded with decode(make(...)) under both signs and every
/// guard × sticky; returns the number of mismatches (the first few are
/// reported).
template <class T>
int check_round(int e, std::uint64_t m, int& reported) {
  int bad = 0;
  for (int v = 0; v < 8; ++v) {
    const bool guard = v & 1, sticky = v & 2, neg = v & 4;
    const Decoded got = T::round_decoded(neg, e, m, guard, sticky);
    const Decoded want = T::decode(T::make(neg, e, m, guard, sticky));
    if (!(got == want)) {
      ++bad;
      if (reported++ < 5) {
        ADD_FAILURE() << "bits=" << T::kBits << " e=" << e << " m=0x" << std::hex << m
                      << " guard=" << guard << " sticky=" << sticky << " neg=" << neg
                      << ": got (" << std::dec << got.u.e << ", 0x" << std::hex << got.u.m
                      << ") want (" << std::dec << want.u.e << ", 0x" << std::hex << want.u.m
                      << ")";
      }
    }
  }
  return bad;
}

/// Cut position (first dropped fraction bit, counted from bit 62 down) of
/// binade e, clamped to the fraction.
template <class Codec>
int fraction_cut(int e) {
  const int f = Codec::frac_bits(e);
  return f < 0 ? 0 : (f > 62 ? 62 : f);
}

/// Significands every binade is checked with: zero and all-ones fractions,
/// single set bits and carry runs (all ones below a position) of every
/// length, and ties at the cut and its neighbours, each with both
/// parities of the kept lsb and one unit either side.
template <class Codec>
std::vector<std::uint64_t> structured_significands(int e) {
  std::vector<std::uint64_t> out = {kHidden, ~0ull};
  for (int j = 0; j < 63; ++j) {
    out.push_back(kHidden | (1ull << j));
    out.push_back(kHidden | ((1ull << j) - 1));
  }
  const int cut = fraction_cut<Codec>(e);
  for (int c = cut - 1; c <= cut + 1; ++c) {
    if (c < 0 || c > 62) continue;
    const std::uint64_t half = 1ull << (62 - c);
    for (const std::uint64_t lsb : {std::uint64_t{0}, c >= 1 ? half << 1 : 0}) {
      const std::uint64_t tie = kHidden | lsb | half;
      out.push_back(tie);
      out.push_back(tie + 1);
      out.push_back(tie - 1);
    }
  }
  return out;
}

template <class Codec>
void exhaustive_round_decoded() {
  using T = TaperedFloat<Codec>;
  constexpr int kMax = Codec::max_exponent;
  int reported = 0, bad = 0;
  long long inputs = 0;
  for (int e = -kMax - 4; e <= kMax + 4; ++e) {
    // Every pattern of the kept fraction, the bit below it and two bits
    // of rest; deeper bits only matter as "non-zero" (the low-bit variant).
    int w = Codec::frac_bits(e) + 3;
    if (w < 2) w = 2;
    for (std::uint64_t f = 0; f < (std::uint64_t{1} << w); ++f) {
      const std::uint64_t lead = kHidden | (f << (63 - w));
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{1}}) {
        bad += check_round<T>(e, lead | low, reported);
        inputs += 8;
      }
    }
    for (const std::uint64_t m : structured_significands<Codec>(e)) {
      bad += check_round<T>(e, m, reported);
      inputs += 8;
    }
  }
  EXPECT_EQ(bad, 0) << Codec::name() << " over " << inputs << " inputs";
}

/// Exponents worth a bias: both sides of every change of frac_bits (regime
/// or characteristic boundaries), the binades keeping 0 or 1 fraction bits,
/// and the saturation edges.
template <class Codec>
std::vector<int> boundary_exponents() {
  constexpr int kMax = Codec::max_exponent;
  std::vector<int> out;
  for (int e = -kMax - 3; e <= kMax + 3; ++e) {
    const int f = Codec::frac_bits(e);
    if (f != Codec::frac_bits(e + 1) || f != Codec::frac_bits(e - 1) || f == 0 || f == 1 ||
        e <= -kMax + 1 || e >= kMax - 2)
      out.push_back(e);
  }
  return out;
}

template <class Codec>
void sampled_round_decoded(std::uint64_t seed) {
  using T = TaperedFloat<Codec>;
  constexpr int kMax = Codec::max_exponent;
  int reported = 0, bad = 0;
  long long inputs = 0;
  for (int e = -kMax - 4; e <= kMax + 4; ++e) {
    for (const std::uint64_t m : structured_significands<Codec>(e)) {
      bad += check_round<T>(e, m, reported);
      inputs += 8;
    }
  }
  const std::vector<int> edges = boundary_exponents<Codec>();
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 40000; ++i) {
    const int e = (i & 1) ? edges[rng() % edges.size()]
                          : static_cast<int>(rng() % (2 * kMax + 9)) - kMax - 4;
    std::uint64_t m = kHidden | rng();
    // Every third sample ends in a run of zeros or ones below a random
    // position, so exact ties and carries stay frequent.
    if (i % 3 == 1) m &= ~((1ull << (rng() % 63)) - 1);
    if (i % 3 == 2) m |= (1ull << (rng() % 63)) - 1;
    bad += check_round<T>(e, m, reported);
    inputs += 8;
  }
  EXPECT_EQ(bad, 0) << Codec::name() << " over " << inputs << " inputs";
}

TEST(DecodedDomain, RoundDecodedExhaustive16) {
  exhaustive_round_decoded<PositCodec<16, 2>>();
  exhaustive_round_decoded<TakumCodec<16>>();
  exhaustive_round_decoded<PositCodec<16, 0>>();
  exhaustive_round_decoded<PositCodec<16, 1>>();
}

TEST(DecodedDomain, RoundDecodedSampledWide) {
  sampled_round_decoded<PositCodec<32, 2>>(1);
  sampled_round_decoded<TakumCodec<32>>(2);
  sampled_round_decoded<PositCodec<64, 2>>(3);
  sampled_round_decoded<TakumCodec<64>>(4);
  sampled_round_decoded<PositCodec<32, 0>>(5);
  sampled_round_decoded<PositCodec<32, 1>>(6);
  sampled_round_decoded<PositCodec<64, 0>>(7);
}

// ---- Decoded ops against the operators -----------------------------------

/// Zero, NaR, the extremes and their neighbours, ±1 and a few ordinary
/// values: the operands where the special cases and saturation live.
template <class T>
std::vector<T> edge_operands() {
  using S = typename T::Storage;
  std::vector<T> out = {T::zero(), T::nar(), T(1.0), T(1.5), T(0.75), T(3.0)};
  for (std::uint64_t d = 0; d < 3; ++d) {
    out.push_back(T::from_bits(static_cast<S>(1 + d)));                  // minpos and up
    out.push_back(T::from_bits(static_cast<S>(T::kNaRBits - 1 - d)));  // maxpos and down
  }
  const std::size_t positives = out.size();
  for (std::size_t i = 2; i < positives; ++i) out.push_back(-out[i]);
  return out;
}

template <class T>
void check_ops(T a, T b, int& bad) {
  const Decoded x = T::decode(a), y = T::decode(b);
  const auto check = [&](const char* op, const Decoded& got, T want) {
    if (!(got == T::decode(want)) || T::encode(got) != want) {
      if (++bad <= 8) {
        ADD_FAILURE() << "bits=" << T::kBits << " 0x" << std::hex << +a.bits() << ' ' << op
                      << " 0x" << +b.bits() << ": decoded op gives 0x" << +T::encode(got).bits()
                      << ", operator 0x" << +want.bits();
      }
    }
  };
  check("+", T::add_decoded(x, y), a + b);
  check("-", T::add_decoded(x, -y), a - b);
  check("*", T::mul_decoded(x, y), a * b);
}

template <class T>
void decoded_ops_match_operators(std::uint64_t seed) {
  using S = typename T::Storage;
  int bad = 0;
  const std::vector<T> edges = edge_operands<T>();
  for (const T a : edges) {
    if (T::encode(T::decode(a)) != a) ++bad;
    for (const T b : edges) check_ops(a, b, bad);
  }
  // Seeded random pairs; every other one puts b within a few encodings of
  // a or -a (near-cancelling sums, products near the square).
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 30000; ++i) {
    const T a = T::from_bits(static_cast<S>(rng()));
    T b = T::from_bits(static_cast<S>(rng()));
    if (i & 1) {
      const T near = (i & 2) ? a : -a;
      b = T::from_bits(static_cast<S>(near.bits() + rng() % 9 - 4));
    }
    if (T::encode(T::decode(a)) != a) ++bad;
    check_ops(a, b, bad);
  }
  EXPECT_EQ(bad, 0);
}

TEST(DecodedDomain, OpsMatchOperators) {
  decoded_ops_match_operators<Posit16>(11);
  decoded_ops_match_operators<Takum16>(12);
  decoded_ops_match_operators<Posit32>(13);
  decoded_ops_match_operators<Takum32>(14);
  decoded_ops_match_operators<Posit64>(15);
  decoded_ops_match_operators<Takum64>(16);
  decoded_ops_match_operators<Posit<64, 0>>(17);  // the 128-bit add core
}

TEST(DecodedDomain, EncodeDecodeRoundTrip16) {
  const auto all = [](auto tag) {
    using T = typename decltype(tag)::type;
    int bad = 0;
    for (std::uint32_t b = 0; b < 65536; ++b) {
      const T x = T::from_bits(static_cast<std::uint16_t>(b));
      if (T::encode(T::decode(x)) != x) ++bad;
    }
    EXPECT_EQ(bad, 0) << T::kBits;
  };
  all(std::type_identity<Posit16>{});
  all(std::type_identity<Takum16>{});
}

}  // namespace
}  // namespace mfla
