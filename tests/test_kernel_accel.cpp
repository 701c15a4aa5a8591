// Bit-identity of the kernel layer's LUT fast paths (kernels/accel.hpp)
// against the exact engines:
//   * exhaustive add/mul over all 256x256 operand pairs for every 8-bit
//     format,
//   * exhaustive decode (double and, for tapered formats, Unpacked) over
//     all 65536 encodings for every 16-bit format,
//   * sampled operand pairs through the 16-bit fast-path ops,
//   * whole kernels (dot/axpy/scal/gemv/spmv) with LUTs on vs off,
//   * 8-bit dot/axpy/scal and SpMV on raw encodings (NaN/inf/NaR codes),
//     awkward lengths, unaligned slices and empty matrix rows, against
//     the exact engine with LUTs on and off,
//   * an end-to-end experiment run whose result CSV must be byte-identical
//     with LUTs on and off.
// In an MFLA_ENABLE_LUT=0 build the fast paths are compiled out and the
// on/off comparisons degenerate to exact-vs-exact, which keeps this suite
// meaningful in both CI configurations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/sweep.hpp"
#include "core/results_io.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/accel.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// RAII override of the runtime LUT switch.
class LutGuard {
 public:
  explicit LutGuard(bool on) : previous_(kernels::set_lut_enabled(on)) {}
  ~LutGuard() { kernels::set_lut_enabled(previous_); }
  LutGuard(const LutGuard&) = delete;
  LutGuard& operator=(const LutGuard&) = delete;

 private:
  bool previous_;
};

/// NaN-safe double comparison: equal bit patterns.
[[nodiscard]] bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(NumTraits<T>::from_double(rng.normal()));
  return v;
}

// -- Exhaustive 8-bit operation tables --------------------------------------

template <typename T>
void check_lut8_exhaustive() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  const auto& lut = kernels::accel::Lut8<T>::instance();
  for (unsigned a = 0; a < 256; ++a) {
    const T ta = Codec::from_bits(static_cast<typename Codec::Storage>(a));
    ASSERT_TRUE(same_double_bits(lut.decode(static_cast<typename Codec::Storage>(a)),
                                 NumTraits<T>::to_double(ta)))
        << NumTraits<T>::name() << " decode mismatch at " << a;
    for (unsigned b = 0; b < 256; ++b) {
      const T tb = Codec::from_bits(static_cast<typename Codec::Storage>(b));
      ASSERT_EQ(Codec::to_bits(lut.add(ta, tb)), Codec::to_bits(ta + tb))
          << NumTraits<T>::name() << " add mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ(Codec::to_bits(lut.mul(ta, tb)), Codec::to_bits(ta * tb))
          << NumTraits<T>::name() << " mul mismatch at (" << a << ", " << b << ")";
    }
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Lut8ExhaustiveOFP8E4M3) { check_lut8_exhaustive<OFP8E4M3>(); }
TEST(KernelAccel, Lut8ExhaustiveOFP8E5M2) { check_lut8_exhaustive<OFP8E5M2>(); }
TEST(KernelAccel, Lut8ExhaustivePosit8) { check_lut8_exhaustive<Posit8>(); }
TEST(KernelAccel, Lut8ExhaustiveTakum8) { check_lut8_exhaustive<Takum8>(); }

// -- Exhaustive 16-bit decode tables ----------------------------------------

template <typename T>
void check_dec16_exhaustive() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  const auto& lut = kernels::accel::Dec16<T>::instance();
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const auto bits = static_cast<typename Codec::Storage>(b);
    ASSERT_TRUE(same_double_bits(lut.decode(bits), Codec::bits_to_double(bits)))
        << NumTraits<T>::name() << " decode mismatch at " << b;
    if constexpr (Codec::tapered) {
      const Unpacked want = Codec::bits_to_unpacked(bits);
      const Unpacked& got = lut.unpacked(bits);
      ASSERT_EQ(got.neg, want.neg) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.e, want.e) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.m, want.m) << NumTraits<T>::name() << " at " << b;
    }
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Dec16ExhaustiveFloat16) { check_dec16_exhaustive<Float16>(); }
TEST(KernelAccel, Dec16ExhaustiveBFloat16) { check_dec16_exhaustive<BFloat16>(); }
TEST(KernelAccel, Dec16ExhaustivePosit16) { check_dec16_exhaustive<Posit16>(); }
TEST(KernelAccel, Dec16ExhaustiveTakum16) { check_dec16_exhaustive<Takum16>(); }

// -- Sampled 16-bit fast-path operations ------------------------------------

template <typename T>
void check_ops16_sampled() {
#if MFLA_ENABLE_LUT
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  const auto fast_ops = [] {
    if constexpr (Codec::tapered) {
      return kernels::accel::Dec16TaperedOps<T>{kernels::accel::Dec16<T>::instance()};
    } else {
      return kernels::accel::Dec16IeeeOps<T>{kernels::accel::Dec16<T>::instance()};
    }
  }();
  const kernels::accel::NativeOps<T> exact_ops;

  const auto check_pair = [&](Storage pa, Storage pb) {
    const T a = Codec::from_bits(pa);
    const T b = Codec::from_bits(pb);
    ASSERT_EQ(Codec::to_bits(fast_ops.add(a, b)), Codec::to_bits(exact_ops.add(a, b)))
        << NumTraits<T>::name() << " add mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ(Codec::to_bits(fast_ops.mul(a, b)), Codec::to_bits(exact_ops.mul(a, b)))
        << NumTraits<T>::name() << " mul mismatch at (" << pa << ", " << pb << ")";
  };

  // Edge encodings: zero, sign bit alone (NaR / -0), all-ones, extremes of
  // both half-ranges — paired with each other.
  const Storage edges[] = {0x0000, 0x8000, 0xffff, 0x0001, 0x7fff, 0x8001, 0x7c00, 0xfc00};
  for (const Storage a : edges)
    for (const Storage b : edges) check_pair(a, b);

  // 200k pseudo-random operand pairs.
  Rng rng("ops16_sampled", static_cast<std::uint64_t>(Codec::tapered));
  for (int i = 0; i < 200000; ++i) {
    const auto pa = static_cast<Storage>(rng.next_u64() & 0xffff);
    const auto pb = static_cast<Storage>(rng.next_u64() & 0xffff);
    check_pair(pa, pb);
  }
#else
  GTEST_SKIP() << "built with MFLA_ENABLE_LUT=0";
#endif
}

TEST(KernelAccel, Ops16SampledFloat16) { check_ops16_sampled<Float16>(); }
TEST(KernelAccel, Ops16SampledBFloat16) { check_ops16_sampled<BFloat16>(); }
TEST(KernelAccel, Ops16SampledPosit16) { check_ops16_sampled<Posit16>(); }
TEST(KernelAccel, Ops16SampledTakum16) { check_ops16_sampled<Takum16>(); }

// -- Whole kernels, LUT on vs off -------------------------------------------

template <typename T>
CsrMatrix<T> small_matrix(std::size_t n) {
  Rng rng("kernel_accel_matrix", n);
  const CooMatrix lap = graph_laplacian_pipeline(
      erdos_renyi(static_cast<std::uint32_t>(n), 8.0 / static_cast<double>(n), rng));
  return CsrMatrix<double>::from_coo(lap).convert<T>();
}

template <typename T>
void check_kernels_on_off() {
  const std::size_t n = 257;
  const auto x = random_vec<T>(n, 11);
  const auto y = random_vec<T>(n, 12);
  const T alpha = NumTraits<T>::from_double(0.37);
  const auto a = small_matrix<T>(64);
  const auto xs = random_vec<T>(a.cols(), 13);

  T dot_on, dot_off, nrm_on, nrm_off;
  std::vector<T> axpy_on = y, axpy_off = y, scal_on = x, scal_off = x;
  std::vector<T> spmv_on(a.rows()), spmv_off(a.rows());
  {
    LutGuard lut(true);
    dot_on = kernels::dot(n, x.data(), y.data());
    nrm_on = kernels::nrm2(n, x.data());
    kernels::axpy(n, alpha, x.data(), axpy_on.data());
    kernels::scal(n, alpha, scal_on.data());
    a.matvec(xs.data(), spmv_on.data());
  }
  {
    LutGuard lut(false);
    dot_off = kernels::dot(n, x.data(), y.data());
    nrm_off = kernels::nrm2(n, x.data());
    kernels::axpy(n, alpha, x.data(), axpy_off.data());
    kernels::scal(n, alpha, scal_off.data());
    a.matvec(xs.data(), spmv_off.data());
  }
  using Codec = ScalarCodec<T>;
  EXPECT_EQ(Codec::to_bits(dot_on), Codec::to_bits(dot_off));
  EXPECT_EQ(Codec::to_bits(nrm_on), Codec::to_bits(nrm_off));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Codec::to_bits(axpy_on[i]), Codec::to_bits(axpy_off[i])) << "axpy at " << i;
    ASSERT_EQ(Codec::to_bits(scal_on[i]), Codec::to_bits(scal_off[i])) << "scal at " << i;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(Codec::to_bits(spmv_on[i]), Codec::to_bits(spmv_off[i])) << "spmv at " << i;
  }
  // The ref:: path must agree with the LUT-off dispatch by definition.
  EXPECT_EQ(Codec::to_bits(kernels::ref::dot(n, x.data(), y.data())), Codec::to_bits(dot_off));
}

TEST(KernelAccel, KernelsOnOffOFP8E4M3) { check_kernels_on_off<OFP8E4M3>(); }
TEST(KernelAccel, KernelsOnOffOFP8E5M2) { check_kernels_on_off<OFP8E5M2>(); }
TEST(KernelAccel, KernelsOnOffPosit8) { check_kernels_on_off<Posit8>(); }
TEST(KernelAccel, KernelsOnOffTakum8) { check_kernels_on_off<Takum8>(); }
TEST(KernelAccel, KernelsOnOffFloat16) { check_kernels_on_off<Float16>(); }
TEST(KernelAccel, KernelsOnOffBFloat16) { check_kernels_on_off<BFloat16>(); }
TEST(KernelAccel, KernelsOnOffPosit16) { check_kernels_on_off<Posit16>(); }
TEST(KernelAccel, KernelsOnOffTakum16) { check_kernels_on_off<Takum16>(); }

// -- 8-bit dispatch on raw encodings, awkward lengths and unaligned slices --
// The KernelSimd suite name is kept from the retired vector-tier tests so
// the test IDs stay stable; the anchor is now the exact engine (ref:: and
// the LUT-off dispatch) instead of a pinned vector level.

/// Vector lengths around common block widths, plus large odd sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,  7,   8,   9,   15,  16,   17,   31,  32,
                                33, 63, 64, 65, 127, 128, 129, 255, 1000, 4097};

/// Raw random encodings — every byte value occurs, so the formats' NaN /
/// inf / NaR / -0 codes all flow through the kernels.
template <typename T>
std::vector<T> random_encodings(std::size_t n, std::uint64_t seed) {
  using Codec = ScalarCodec<T>;
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(Codec::from_bits(static_cast<typename Codec::Storage>(rng.next_u64() & 0xff)));
  return v;
}

template <typename T>
void expect_same_bits(const std::vector<T>& a, const std::vector<T>& b, const char* what) {
  using Codec = ScalarCodec<T>;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(Codec::to_bits(a[i]), Codec::to_bits(b[i]))
        << NumTraits<T>::name() << " " << what << " at " << i;
}

template <typename T>
void check_dispatch_on_off() {
  using Codec = ScalarCodec<T>;
  const T alpha = NumTraits<T>::from_double(-0.31);
  for (const std::size_t n : kLengths) {
    // +3 so the unaligned slices below stay in bounds.
    const auto xv = random_encodings<T>(n + 3, 700 + n);
    const auto yv = random_encodings<T>(n + 3, 800 + n);
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const T* x = xv.data() + shift;
      const T* y = yv.data() + shift;
      const T dot_anchor = kernels::ref::dot(n, x, y);
      std::vector<T> ax_anchor(y, y + n), sc_anchor(x, x + n);
      kernels::ref::axpy(n, alpha, x, ax_anchor.data());
      kernels::ref::scal(n, alpha, sc_anchor.data());
      for (const bool lut_on : {true, false}) {
        LutGuard lut(lut_on);
        std::vector<T> ax(y, y + n), sc(x, x + n);
        kernels::axpy(n, alpha, x, ax.data());
        kernels::scal(n, alpha, sc.data());
        ASSERT_EQ(Codec::to_bits(kernels::dot(n, x, y)), Codec::to_bits(dot_anchor))
            << NumTraits<T>::name() << " dot n=" << n << " shift=" << shift << " lut=" << lut_on;
        expect_same_bits(ax, ax_anchor, lut_on ? "axpy lut on" : "axpy lut off");
        expect_same_bits(sc, sc_anchor, lut_on ? "scal lut on" : "scal lut off");
      }
    }
  }
}

TEST(KernelSimd, DispatchOnOffOFP8E4M3) { check_dispatch_on_off<OFP8E4M3>(); }
TEST(KernelSimd, DispatchOnOffOFP8E5M2) { check_dispatch_on_off<OFP8E5M2>(); }
TEST(KernelSimd, DispatchOnOffPosit8) { check_dispatch_on_off<Posit8>(); }
TEST(KernelSimd, DispatchOnOffTakum8) { check_dispatch_on_off<Takum8>(); }

template <typename T>
CsrMatrix<T> test_matrix_irregular(std::size_t n, std::uint64_t salt) {
  // Laplacian of a random graph with every 11th row dropped, so the matrix
  // has genuinely empty rows next to rows of varying length.
  Rng rng("irregular_matrix", salt);
  const CooMatrix lap = graph_laplacian_pipeline(
      erdos_renyi(static_cast<std::uint32_t>(n), 6.0 / static_cast<double>(n), rng));
  CooMatrix pruned(lap.rows(), lap.cols());
  for (const auto& t : lap.triplets()) {
    if (t.row % 11 == 5) continue;
    pruned.add(t.row, t.col, t.value);
  }
  return CsrMatrix<double>::from_coo(pruned).convert<T>();
}

template <typename T>
void check_spmv_on_off() {
  const auto a = test_matrix_irregular<T>(97, 1);
  if constexpr (kernels::spmv_plan_supported<T>()) {
    EXPECT_TRUE(a.has_spmv_plan());
  }
  const auto x = random_encodings<T>(a.cols(), 42);
  std::vector<T> y_anchor(a.rows()), y_planned(a.rows()), y_noplan(a.rows());
  {
    LutGuard lut(false);
    a.matvec(x.data(), y_anchor.data());
  }
  {
    LutGuard lut(true);
    a.matvec(x.data(), y_planned.data());
    // Generic (plan-less) kernel for the same product.
    kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                  y_noplan.data());
  }
  expect_same_bits(y_planned, y_anchor, "spmv planned/exact");
  expect_same_bits(y_noplan, y_anchor, "spmv generic/exact");
}

TEST(KernelSimd, SpmvOnOffOFP8E4M3) { check_spmv_on_off<OFP8E4M3>(); }
TEST(KernelSimd, SpmvOnOffOFP8E5M2) { check_spmv_on_off<OFP8E5M2>(); }
TEST(KernelSimd, SpmvOnOffPosit8) { check_spmv_on_off<Posit8>(); }
TEST(KernelSimd, SpmvOnOffTakum8) { check_spmv_on_off<Takum8>(); }

// -- End to end: experiment CSVs byte-identical, LUT on vs off --------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(KernelAccel, ExperimentCsvByteIdenticalLutOnOff) {
  std::vector<TestMatrix> ds;
  Rng r1(9001), r2(9002);
  ds.push_back(make_test_matrix("accel_er", "social", "soc",
                                graph_laplacian_pipeline(erdos_renyi(40, 0.16, r1))));
  ds.push_back(make_test_matrix("accel_sbm", "social", "soc",
                                graph_laplacian_pipeline(stochastic_block(44, 2, 0.35, 0.07, r2))));
  const std::vector<FormatId> formats = {
      FormatId::ofp8_e4m3, FormatId::ofp8_e5m2, FormatId::posit8,  FormatId::takum8,
      FormatId::float16,   FormatId::bfloat16,  FormatId::posit16, FormatId::takum16,
      FormatId::float64,
  };
  ExperimentConfig cfg;
  cfg.nev = 4;
  cfg.buffer = 2;
  cfg.max_restarts = 40;
  cfg.reference_max_restarts = 150;

  const auto run_to_csv = [&](bool lut_on, const std::string& tag) {
    LutGuard lut(lut_on);
    const auto results = api::Sweep::over(ds).formats(formats).config(cfg).run().results;
    const std::string path = "test_out/kernel_accel_" + tag + ".csv";
    write_results_csv(path, results);
    std::string data = slurp(path);
    std::remove(path.c_str());
    return data;
  };

  const std::string csv_on = run_to_csv(true, "on");
  const std::string csv_off = run_to_csv(false, "off");
  EXPECT_FALSE(csv_on.empty());
  EXPECT_EQ(csv_on, csv_off);
}

}  // namespace
}  // namespace mfla
