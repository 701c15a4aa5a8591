// Property/fuzz harness over the kernel layer: every kernels:: entry point
// run on a format T must be bit-identical to the same kernel run on
// Exact<T> (arith/exact.hpp), i.e. on T's exact engines with no table in
// the path — for EVERY emulated format in the registry, on operand
// streams that deliberately include the nasty values (NaN / NaR, +/-inf,
// -0.0, double denormals, values past the format's range in both
// directions, the tapered formats' saturation binades) interleaved with
// seeded pseudo-random data. For the >=16-bit posits and takums this also
// pits the kernels' decoded domain against the plain operators. Native float and
// double have no separate exact engine, so there is nothing to compare.
//
// The table tier may only change how results are obtained, never what is
// computed; this suite is the pairwise enforcement of that contract one
// level above the exhaustive per-table tests (test_kernel_accel.cpp).
// Results are compared by object representation (memcmp), so NaN payloads
// and -0.0 count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arith/exact.hpp"
#include "arith/format_registry.hpp"
#include "dense/matrix.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

template <typename T>
[[nodiscard]] bool same_repr(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Operand stream: the special values cycle through the head positions and
/// then keep reappearing every 7th slot inside pseudo-random filler, so
/// short vectors are all-special and long ones mix specials throughout.
template <typename T>
std::vector<T> fuzz_vec(std::size_t n, std::uint64_t seed) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  // The second row sits on the tapered formats' edges: their maxpos and
  // minpos binades (posit16 2^±56, posit32 2^±120, posit64 2^±248, takum
  // 2^254 and 2^-255, where the zero-fraction value is the zero pattern)
  // and a fraction of all ones, whose rounding carries into the next binade.
  const double specials[] = {0.0,     -0.0,      1.0,       -1.0,       inf,       -inf,
                             nan,     5e-324,    1e-300,    -1e-40,     1e300,     -1e38,
                             65504.0, 0.125,     -0.1,      3.5,        0x1p56,    -0x1p-56,
                             0x1p120, -0x1p-120, -0x1p248,  0x1p-248,   0x1p254,   0x1p-255,
                             -0x1.fffffffffffffp0};
  constexpr std::size_t ns = sizeof(specials) / sizeof(specials[0]);
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (i < ns || i % 7 == 0) ? specials[(i + seed) % ns] : rng.normal() * 4.0;
    v.push_back(NumTraits<T>::from_double(d));
  }
  return v;
}

/// A small fixed CSR structure with irregular rows (lengths 0..4) used for
/// the spmv leg; values come from the fuzz stream.
struct FuzzCsr {
  std::vector<std::uint32_t> row_ptr, col_idx;
  std::size_t rows, cols;
  explicit FuzzCsr(std::size_t rows_, std::size_t cols_, std::uint64_t seed)
      : rows(rows_), cols(cols_) {
    Rng rng(seed);
    row_ptr.push_back(0);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t len = (r * 3 + static_cast<std::size_t>(seed)) % 5;
      for (std::size_t t = 0; t < len; ++t)
        col_idx.push_back(static_cast<std::uint32_t>(rng.uniform_index(cols)));
      row_ptr.push_back(static_cast<std::uint32_t>(col_idx.size()));
    }
  }
};

/// The same values on the exact engines.
template <typename T>
std::vector<Exact<T>> exact_copy(const std::vector<T>& v) {
  std::vector<Exact<T>> out;
  out.reserve(v.size());
  for (const T& x : v) out.push_back(Exact<T>::of(x));
  return out;
}

template <typename T>
DenseMatrix<Exact<T>> exact_copy(const DenseMatrix<T>& a) {
  DenseMatrix<Exact<T>> out(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) = Exact<T>::of(a(i, j));
  return out;
}

template <typename T>
void expect_vec_repr(const std::vector<T>& got, const std::vector<Exact<T>>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_repr(got[i], want[i].value()))
        << NumTraits<T>::name() << " " << what << " differs from the exact engine at " << i
        << " (" << NumTraits<T>::to_double(got[i]) << " vs " << want[i].to_double() << ")";
}

template <typename T>
void check_format(int bits) {
  using E = Exact<T>;
  // Wide formats run fully emulated exact engines on every leg; keep their
  // volume down so the suite stays fast.
  const std::size_t nmax = bits <= 16 ? 130 : 33;
  const std::size_t lengths[] = {0, 1, 9, 33, nmax};
  const T alpha = NumTraits<T>::from_double(-0.75);

  for (const std::size_t n : lengths) {
    const auto x = fuzz_vec<T>(n, 1 + n);
    const auto y = fuzz_vec<T>(n, 2 + n);
    const auto xe = exact_copy(x), ye = exact_copy(y);

    ASSERT_TRUE(same_repr(kernels::dot(n, x.data(), y.data()),
                          kernels::dot(n, xe.data(), ye.data()).value()))
        << NumTraits<T>::name() << " dot n=" << n;
    ASSERT_TRUE(same_repr(kernels::nrm2(n, x.data()), kernels::nrm2(n, xe.data()).value()))
        << NumTraits<T>::name() << " nrm2 n=" << n;
    std::vector<T> ax = y, sc = x;
    std::vector<E> axe = ye, sce = xe;
    kernels::axpy(n, alpha, x.data(), ax.data());
    kernels::axpy(n, E::of(alpha), xe.data(), axe.data());
    kernels::scal(n, alpha, sc.data());
    kernels::scal(n, E::of(alpha), sce.data());
    expect_vec_repr(ax, axe, "axpy");
    expect_vec_repr(sc, sce, "scal");
  }

  // Dense gemv / gemv_t / matmul on a small matrix with specials.
  {
    const std::size_t m = 13, n2 = 11;
    DenseMatrix<T> a(m, n2);
    const auto av = fuzz_vec<T>(m * n2, 41);
    for (std::size_t j = 0; j < n2; ++j)
      for (std::size_t i = 0; i < m; ++i) a(i, j) = av[j * m + i];
    const auto xr = fuzz_vec<T>(n2, 42);
    const auto xl = fuzz_vec<T>(m, 43);
    DenseMatrix<T> b(n2, 5);
    const auto bv = fuzz_vec<T>(n2 * 5, 44);
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t i = 0; i < n2; ++i) b(i, j) = bv[j * n2 + i];
    const auto ae = exact_copy(a), be = exact_copy(b);
    const auto xre = exact_copy(xr), xle = exact_copy(xl);

    std::vector<T> gv(m), gvt(n2);
    std::vector<E> gve(m), gvte(n2);
    kernels::gemv(a, xr.data(), gv.data());
    kernels::gemv(ae, xre.data(), gve.data());
    kernels::gemv_t(a, xl.data(), gvt.data());
    kernels::gemv_t(ae, xle.data(), gvte.data());
    expect_vec_repr(gv, gve, "gemv");
    expect_vec_repr(gvt, gvte, "gemv_t");
    const DenseMatrix<T> mm = kernels::matmul(a, b);
    const DenseMatrix<E> mme = kernels::matmul(ae, be);
    for (std::size_t j = 0; j < mm.cols(); ++j)
      for (std::size_t i = 0; i < mm.rows(); ++i)
        ASSERT_TRUE(same_repr(mm(i, j), mme(i, j).value()))
            << NumTraits<T>::name() << " matmul (" << i << ", " << j << ")";
  }

  // Sparse: spmv over an irregular structure with special values.
  {
    const FuzzCsr s(29, 17, 5);
    const auto vals = fuzz_vec<T>(s.col_idx.size(), 51);
    const auto x = fuzz_vec<T>(s.cols, 52);
    const auto valse = exact_copy(vals), xe = exact_copy(x);
    std::vector<T> yv(s.rows);
    std::vector<E> yve(s.rows);
    kernels::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), vals.data(), x.data(), yv.data());
    kernels::spmv(s.rows, s.row_ptr.data(), s.col_idx.data(), valse.data(), xe.data(),
                  yve.data());
    expect_vec_repr(yv, yve, "spmv");
  }
}

TEST(KernelProperties, AllRegistryFormats) {
  for (const FormatInfo& info : all_formats()) {
    SCOPED_TRACE(info.name);
    dispatch_format(info.id, [&](auto tag) {
      using T = typename decltype(tag)::type;
      if constexpr (HasExactEngine<T>) check_format<T>(info.bits);
    });
  }
}

}  // namespace
}  // namespace mfla
