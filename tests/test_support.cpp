// Unit tests for the support layer: 128-bit helpers, double decomposition,
// deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/floatbits.hpp"
#include "support/int128.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

TEST(Int128, ClzBasics) {
  EXPECT_EQ(clz_u128(u128{1}), 127);
  EXPECT_EQ(clz_u128(u128{1} << 127), 0);
  EXPECT_EQ(clz_u128(u128{1} << 64), 63);
  EXPECT_EQ(clz_u64(1ull), 63);
  EXPECT_EQ(clz_u64(1ull << 63), 0);
}

TEST(Int128, ShiftRightSticky) {
  bool sticky = false;
  EXPECT_EQ(shift_right_sticky(u128{0b1011}, 2, sticky), u128{0b10});
  EXPECT_TRUE(sticky);
  sticky = false;
  EXPECT_EQ(shift_right_sticky(u128{0b1000}, 2, sticky), u128{0b10});
  EXPECT_FALSE(sticky);
  sticky = false;
  EXPECT_EQ(shift_right_sticky(u128{5}, 200, sticky), u128{0});
  EXPECT_TRUE(sticky);
  sticky = false;
  EXPECT_EQ(shift_right_sticky(u128{0}, 200, sticky), u128{0});
  EXPECT_FALSE(sticky);
  sticky = false;
  EXPECT_EQ(shift_right_sticky(u128{42}, 0, sticky), u128{42});
  EXPECT_FALSE(sticky);
}

TEST(Int128, IsqrtExhaustiveSmall) {
  for (std::uint64_t n = 0; n < 10000; ++n) {
    const std::uint64_t s = isqrt_u128(n);
    EXPECT_LE(static_cast<u128>(s) * s, static_cast<u128>(n));
    EXPECT_GT(static_cast<u128>(s + 1) * (s + 1), static_cast<u128>(n));
  }
}

TEST(Int128, IsqrtLargeValues) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const u128 n = (static_cast<u128>(rng.next_u64()) << 64) | rng.next_u64();
    const std::uint64_t s = isqrt_u128(n);
    EXPECT_LE(static_cast<u128>(s) * s, n);
    if (s != ~0ull) {
      EXPECT_GT(static_cast<u128>(s + 1) * (s + 1), n);
    }
  }
}

TEST(Int128, IsqrtPerfectSquares) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t r = rng.next_u64();
    EXPECT_EQ(isqrt_u128(static_cast<u128>(r) * r), r);
  }
}

// The 64-bit root behind sqrt of the <=32-bit tapered formats: small
// values, squares and their neighbours (where the double seed is off by
// one), random words, and the top of the range, whose seed rounds to 2^32.
TEST(Int128, IsqrtU64) {
  const auto check = [](std::uint64_t n) {
    const std::uint64_t s = isqrt_u64(n);
    EXPECT_LE(static_cast<u128>(s) * s, static_cast<u128>(n)) << n;
    EXPECT_GT(static_cast<u128>(s + 1) * (s + 1), static_cast<u128>(n)) << n;
  };
  for (std::uint64_t n = 0; n < 10000; ++n) check(n);
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = rng.next_u64() >> 32;
    check(r * r);
    check(r * r - 1);
    check(r * r + 2 * r);  // (r + 1)^2 - 1
    check(rng.next_u64());
  }
  for (std::uint64_t d = 0; d < 1000; ++d) check(~0ull - d);
}

TEST(FloatBits, DecomposeNormal) {
  const DoubleParts p = decompose_double(1.0);
  EXPECT_FALSE(p.neg);
  EXPECT_FALSE(p.zero);
  EXPECT_EQ(p.sig, 1ull << 52);
  EXPECT_EQ(p.e, -52);
}

TEST(FloatBits, DecomposeSubnormal) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const DoubleParts p = decompose_double(tiny);
  EXPECT_EQ(p.sig, 1ull << 52);       // normalized
  EXPECT_EQ(p.e, -1074 - 52);         // value = 2^-1074
  EXPECT_DOUBLE_EQ(compose_double(p.neg, p.sig, p.e), tiny);
}

TEST(FloatBits, DecomposeSpecials) {
  EXPECT_TRUE(decompose_double(0.0).zero);
  EXPECT_TRUE(decompose_double(-0.0).zero);
  EXPECT_TRUE(decompose_double(-0.0).neg);
  EXPECT_TRUE(decompose_double(std::nan("")).nan);
  EXPECT_TRUE(decompose_double(std::numeric_limits<double>::infinity()).inf);
}

TEST(FloatBits, RoundTripRandomDoubles) {
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.normal() * rng.log_uniform(-200.0, 200.0);
    const DoubleParts p = decompose_double(x);
    EXPECT_DOUBLE_EQ(compose_double(p.neg, p.sig, p.e), x);
  }
}

TEST(Rng, Deterministic) {
  Rng a("matrix_42", 7);
  Rng b("matrix_42", 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a("matrix_42", 7);
  Rng b("matrix_43", 7);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, UnitVectorNormalized) {
  Rng rng(3);
  const auto v = rng.unit_vector(1000);
  double norm2 = 0;
  for (const double x : v) norm2 += x * x;
  EXPECT_NEAR(norm2, 1.0, 1e-12);
}

TEST(Rng, LogUniformRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(-3.0, 3.0);
    EXPECT_GE(v, 1e-3);
    EXPECT_LE(v, 1e3);
  }
}

TEST(Rng, Fnv1aStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

}  // namespace
}  // namespace mfla
