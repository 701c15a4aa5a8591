// Bit-identity of the table-backed scalar types (arith/lut.hpp) against
// their exact engines, called by name:
//   * exhaustive + − × ÷ over all 256x256 operand pairs and √ and decode
//     over all 256 encodings, for every 8-bit format,
//   * exhaustive to_double and (tapered formats) unpack over all 65536
//     encodings, for every 16-bit format,
//   * sampled operand pairs through the 16-bit operators,
//   * whole kernels (dot/nrm2/axpy/scal/spmv) on T against the same loops
//     on Exact<T> (arith/exact.hpp), which runs every operation on the
//     exact engine,
//   * 8-bit kernels and SpMV on raw encodings (NaN/inf/NaR codes), awkward
//     lengths, unaligned slices and empty matrix rows, the same way,
//   * end to end: the result CSV of run_format<T> against run_format<Exact<T>>.
// In an MFLA_ENABLE_LUT=0 build the operators are the exact engines, so
// every comparison is exact-vs-exact there and the suite stays meaningful
// in both CI configurations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arith/exact.hpp"
#include "arith/format_registry.hpp"
#include "core/experiment.hpp"
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

/// NaN-safe double comparison: equal bit patterns.
[[nodiscard]] bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename T>
[[nodiscard]] auto bits_of(T x) {
  return ScalarCodec<T>::to_bits(x);
}
template <typename T>
[[nodiscard]] auto bits_of(Exact<T> x) {
  return ScalarCodec<T>::to_bits(x.value());
}

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(NumTraits<T>::from_double(rng.normal()));
  return v;
}

/// The same values on the exact engines.
template <typename T>
std::vector<Exact<T>> exact_copy(const std::vector<T>& v) {
  std::vector<Exact<T>> out;
  out.reserve(v.size());
  for (const T& x : v) out.push_back(Exact<T>::of(x));
  return out;
}

template <typename T, typename U>
void expect_same_bits(const std::vector<T>& got, const std::vector<U>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << NumTraits<T>::name() << " " << what << " at "
                                                 << i;
}

// -- Exhaustive 8-bit operation tables --------------------------------------

template <typename T>
void check_lut8_exhaustive() {
  using Storage = typename ScalarCodec<T>::Storage;
  for (unsigned a = 0; a < 256; ++a) {
    const T ta = T::from_bits(static_cast<Storage>(a));
    ASSERT_TRUE(same_double_bits(ta.to_double(), ta.to_double_exact()))
        << NumTraits<T>::name() << " decode mismatch at " << a;
    ASSERT_EQ(sqrt(ta).bits(), T::sqrt_exact(ta).bits())
        << NumTraits<T>::name() << " sqrt mismatch at " << a;
    for (unsigned b = 0; b < 256; ++b) {
      const T tb = T::from_bits(static_cast<Storage>(b));
      ASSERT_EQ((ta + tb).bits(), T::add_exact(ta, tb).bits())
          << NumTraits<T>::name() << " add mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ((ta - tb).bits(), T::sub_exact(ta, tb).bits())
          << NumTraits<T>::name() << " sub mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ((ta * tb).bits(), T::mul_exact(ta, tb).bits())
          << NumTraits<T>::name() << " mul mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ((ta / tb).bits(), T::div_exact(ta, tb).bits())
          << NumTraits<T>::name() << " div mismatch at (" << a << ", " << b << ")";
    }
  }
}

TEST(KernelAccel, Lut8ExhaustiveOFP8E4M3) { check_lut8_exhaustive<OFP8E4M3>(); }
TEST(KernelAccel, Lut8ExhaustiveOFP8E5M2) { check_lut8_exhaustive<OFP8E5M2>(); }
TEST(KernelAccel, Lut8ExhaustivePosit8) { check_lut8_exhaustive<Posit8>(); }
TEST(KernelAccel, Lut8ExhaustiveTakum8) { check_lut8_exhaustive<Takum8>(); }

// -- Exhaustive 16-bit decode tables ----------------------------------------

template <typename T>
void check_dec16_exhaustive() {
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const T x = T::from_bits(static_cast<std::uint16_t>(b));
    ASSERT_TRUE(same_double_bits(x.to_double(), x.to_double_exact()))
        << NumTraits<T>::name() << " decode mismatch at " << b;
    if constexpr (NumTraits<T>::tapered) {
      const Unpacked want = x.unpack_exact();
      const Unpacked got = x.unpack();
      ASSERT_EQ(got.neg, want.neg) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.e, want.e) << NumTraits<T>::name() << " at " << b;
      ASSERT_EQ(got.m, want.m) << NumTraits<T>::name() << " at " << b;
    }
  }
}

TEST(KernelAccel, Dec16ExhaustiveFloat16) { check_dec16_exhaustive<Float16>(); }
TEST(KernelAccel, Dec16ExhaustiveBFloat16) { check_dec16_exhaustive<BFloat16>(); }
TEST(KernelAccel, Dec16ExhaustivePosit16) { check_dec16_exhaustive<Posit16>(); }
TEST(KernelAccel, Dec16ExhaustiveTakum16) { check_dec16_exhaustive<Takum16>(); }

// -- Sampled 16-bit operators -----------------------------------------------

template <typename T>
void check_ops16_sampled() {
  const auto check_pair = [](std::uint16_t pa, std::uint16_t pb) {
    const T a = T::from_bits(pa);
    const T b = T::from_bits(pb);
    ASSERT_EQ((a + b).bits(), T::add_exact(a, b).bits())
        << NumTraits<T>::name() << " add mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ((a - b).bits(), T::sub_exact(a, b).bits())
        << NumTraits<T>::name() << " sub mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ((a * b).bits(), T::mul_exact(a, b).bits())
        << NumTraits<T>::name() << " mul mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ((a / b).bits(), T::div_exact(a, b).bits())
        << NumTraits<T>::name() << " div mismatch at (" << pa << ", " << pb << ")";
    ASSERT_EQ(sqrt(a).bits(), T::sqrt_exact(a).bits())
        << NumTraits<T>::name() << " sqrt mismatch at " << pa;
  };

  // Edge encodings: zero, sign bit alone (NaR / -0), all-ones, extremes of
  // both half-ranges — paired with each other.
  const std::uint16_t edges[] = {0x0000, 0x8000, 0xffff, 0x0001, 0x7fff, 0x8001, 0x7c00, 0xfc00};
  for (const std::uint16_t a : edges)
    for (const std::uint16_t b : edges) check_pair(a, b);

  // 200k pseudo-random operand pairs.
  Rng rng("ops16_sampled", static_cast<std::uint64_t>(NumTraits<T>::tapered));
  for (int i = 0; i < 200000; ++i) {
    const auto pa = static_cast<std::uint16_t>(rng.next_u64() & 0xffff);
    const auto pb = static_cast<std::uint16_t>(rng.next_u64() & 0xffff);
    check_pair(pa, pb);
  }
}

TEST(KernelAccel, Ops16SampledFloat16) { check_ops16_sampled<Float16>(); }
TEST(KernelAccel, Ops16SampledBFloat16) { check_ops16_sampled<BFloat16>(); }
TEST(KernelAccel, Ops16SampledPosit16) { check_ops16_sampled<Posit16>(); }
TEST(KernelAccel, Ops16SampledTakum16) { check_ops16_sampled<Takum16>(); }

// -- Whole kernels on T against the same loops on the exact engines ---------

template <typename T>
CsrMatrix<T> small_matrix(std::size_t n) {
  Rng rng("kernel_accel_matrix", n);
  const CooMatrix lap = graph_laplacian_pipeline(
      erdos_renyi(static_cast<std::uint32_t>(n), 8.0 / static_cast<double>(n), rng));
  return CsrMatrix<double>::from_coo(lap).convert<T>();
}

template <typename T>
void check_kernels_on_off() {
  using E = Exact<T>;
  const std::size_t n = 257;
  const auto x = random_vec<T>(n, 11);
  const auto y = random_vec<T>(n, 12);
  const auto xe = exact_copy(x), ye = exact_copy(y);
  const T alpha = NumTraits<T>::from_double(0.37);
  const auto a = small_matrix<T>(64);
  const auto ae = small_matrix<E>(64);
  const auto xs = random_vec<T>(a.cols(), 13);
  const auto xse = exact_copy(xs);

  EXPECT_EQ(bits_of(kernels::dot(n, x.data(), y.data())),
            bits_of(kernels::dot(n, xe.data(), ye.data())));
  EXPECT_EQ(bits_of(kernels::nrm2(n, x.data())), bits_of(kernels::nrm2(n, xe.data())));
  std::vector<T> ax = y, sc = x, sp(a.rows());
  std::vector<E> axe = ye, sce = xe, spe(a.rows());
  kernels::axpy(n, alpha, x.data(), ax.data());
  kernels::axpy(n, E::of(alpha), xe.data(), axe.data());
  kernels::scal(n, alpha, sc.data());
  kernels::scal(n, E::of(alpha), sce.data());
  a.matvec(xs.data(), sp.data());
  ae.matvec(xse.data(), spe.data());
  expect_same_bits(ax, axe, "axpy");
  expect_same_bits(sc, sce, "scal");
  expect_same_bits(sp, spe, "spmv");
}

TEST(KernelAccel, KernelsOnOffOFP8E4M3) { check_kernels_on_off<OFP8E4M3>(); }
TEST(KernelAccel, KernelsOnOffOFP8E5M2) { check_kernels_on_off<OFP8E5M2>(); }
TEST(KernelAccel, KernelsOnOffPosit8) { check_kernels_on_off<Posit8>(); }
TEST(KernelAccel, KernelsOnOffTakum8) { check_kernels_on_off<Takum8>(); }
TEST(KernelAccel, KernelsOnOffFloat16) { check_kernels_on_off<Float16>(); }
TEST(KernelAccel, KernelsOnOffBFloat16) { check_kernels_on_off<BFloat16>(); }
TEST(KernelAccel, KernelsOnOffPosit16) { check_kernels_on_off<Posit16>(); }
TEST(KernelAccel, KernelsOnOffTakum16) { check_kernels_on_off<Takum16>(); }

// -- 8-bit kernels on raw encodings, awkward lengths and unaligned slices ---
// (The KernelSimd suite name is historical; these compare the table-backed
// kernels with the same loops on the exact engines.)

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
void check_dispatch_on_off() {
  using E = Exact<T>;
  const T alpha = NumTraits<T>::from_double(-0.31);
  for (const std::size_t n : kLengths) {
    // +3 so the unaligned slices below stay in bounds.
    const auto xv = random_encodings<T>(n + 3, 700 + n);
    const auto yv = random_encodings<T>(n + 3, 800 + n);
    const auto xev = exact_copy(xv), yev = exact_copy(yv);
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const T* x = xv.data() + shift;
      const T* y = yv.data() + shift;
      const E* xe = xev.data() + shift;
      const E* ye = yev.data() + shift;
      ASSERT_EQ(bits_of(kernels::dot(n, x, y)), bits_of(kernels::dot(n, xe, ye)))
          << NumTraits<T>::name() << " dot n=" << n << " shift=" << shift;
      std::vector<T> ax(y, y + n), sc(x, x + n);
      std::vector<E> axe(ye, ye + n), sce(xe, xe + n);
      kernels::axpy(n, alpha, x, ax.data());
      kernels::axpy(n, E::of(alpha), xe, axe.data());
      kernels::scal(n, alpha, sc.data());
      kernels::scal(n, E::of(alpha), sce.data());
      expect_same_bits(ax, axe, "axpy");
      expect_same_bits(sc, sce, "scal");
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
  using E = Exact<T>;
  const auto a = test_matrix_irregular<T>(97, 1);
  const auto ae = test_matrix_irregular<E>(97, 1);
  if constexpr (kernels::spmv_plan_supported<T>()) {
    EXPECT_TRUE(a.has_spmv_plan());
  }
  const auto x = random_encodings<T>(a.cols(), 42);
  const auto xe = exact_copy(x);
  std::vector<T> y_planned(a.rows()), y_noplan(a.rows());
  std::vector<E> y_exact(a.rows());
  a.matvec(x.data(), y_planned.data());
  // Generic (plan-less) loop for the same product.
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                y_noplan.data());
  ae.matvec(xe.data(), y_exact.data());
  expect_same_bits(y_planned, y_exact, "spmv planned/exact");
  expect_same_bits(y_noplan, y_exact, "spmv generic/exact");
}

TEST(KernelSimd, SpmvOnOffOFP8E4M3) { check_spmv_on_off<OFP8E4M3>(); }
TEST(KernelSimd, SpmvOnOffOFP8E5M2) { check_spmv_on_off<OFP8E5M2>(); }
TEST(KernelSimd, SpmvOnOffPosit8) { check_spmv_on_off<Posit8>(); }
TEST(KernelSimd, SpmvOnOffTakum8) { check_spmv_on_off<Takum8>(); }

// -- End to end: result CSVs byte-identical, tables vs exact engines --------

std::string csv_text(const std::vector<MatrixResult>& results, const std::string& tag) {
  const std::string path = "test_out/kernel_accel_" + tag + ".csv";
  write_results_csv(path, results);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
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
  };
  ExperimentConfig cfg;
  cfg.nev = 4;
  cfg.buffer = 2;
  cfg.max_restarts = 40;
  cfg.reference_max_restarts = 150;

  // The pipeline of the sweep engine, one matrix and format at a time:
  // the same reference and start vector feed both arithmetic paths.
  std::vector<MatrixResult> tabled, exact;
  for (const TestMatrix& tm : ds) {
    Rng rng(tm.name);
    const std::vector<double> start = rng.unit_vector(tm.n());
    const ReferenceSolution ref = compute_reference(tm, cfg, start);
    ASSERT_TRUE(ref.ok) << tm.name;
    MatrixResult base;
    base.name = tm.name;
    base.klass = tm.klass;
    base.category = tm.category;
    base.n = tm.n();
    base.nnz = tm.matrix.nnz();
    base.reference_ok = true;
    tabled.push_back(base);
    exact.push_back(base);
    for (const FormatId id : formats) {
      dispatch_format(id, [&](auto tag) {
        using T = typename decltype(tag)::type;
        if constexpr (HasExactEngine<T>) {
          tabled.back().runs.push_back(run_format<T>(tm, ref, cfg, start, id));
          exact.back().runs.push_back(run_format<Exact<T>>(tm, ref, cfg, start, id));
        }
        return 0;
      });
    }
    ASSERT_EQ(exact.back().runs.size(), formats.size());
  }

  const std::string csv_tabled = csv_text(tabled, "tabled");
  const std::string csv_exact = csv_text(exact, "exact");
  EXPECT_FALSE(csv_tabled.empty());
  EXPECT_EQ(csv_tabled, csv_exact);
}

}  // namespace
}  // namespace mfla
