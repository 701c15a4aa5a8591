// Bit-identity of the blocked and fused multi-term loops: the register-
// blocked update_basis, the one-pass Gram–Schmidt of detail::orthogonalize,
// the decoded-domain Givens similarity and the paired Householder
// reflector, each against the plain loop it replaces, written out here on
// T's operators. For every registry format that has an exact engine the
// reference runs on Exact<T> (arith/exact.hpp), so the tables and the
// decoded domain are both out of its path; float, double, dd and float128
// run it on T.
//
// Operands come from the fuzz stream of test_kernel_properties.cpp's
// kind: NaN/NaR, ±inf, −0, double denormals and values past each format's
// range interleaved with seeded normals. Results are compared by object
// representation, so NaN payloads and −0 count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "arith/exact.hpp"
#include "arith/format_registry.hpp"
#include "core/arnoldi.hpp"
#include "dense/matrix.hpp"
#include "dense/schur.hpp"
#include "kernels/vector_ops.hpp"
#include "support/rng.hpp"

namespace mfla {
namespace {

/// The format the reference loops run on: T's exact engines where T has
/// them, T itself otherwise.
template <typename T>
struct RefOf {
  using type = T;
  static T of(T x) { return x; }
  static T value(T x) { return x; }
};
template <HasExactEngine T>
struct RefOf<T> {
  using type = Exact<T>;
  static Exact<T> of(T x) { return Exact<T>::of(x); }
  static T value(Exact<T> x) { return x.value(); }
};

/// Same object representation. For the hardware and libgcc formats (float,
/// double, dd, float128) two NaNs count as equal whatever their payloads:
/// the compiler may commute an add or a multiply, which only changes which
/// operand's NaN payload an IEEE operation passes on.
template <typename T>
[[nodiscard]] bool same_repr(const T& a, const T& b) {
  if constexpr (!HasExactEngine<T>) {
    if (!is_number(a) && !is_number(b) && !(a == a) && !(b == b)) return true;
  }
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Seeded normals with the special values at the head and at every 7th
/// slot after it (`special_every` = 0: none past the head).
template <typename T>
std::vector<T> fuzz_vec(std::size_t n, std::uint64_t seed, std::size_t special_every = 7,
                        double scale = 1.0) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,    -0.0,     inf,     -inf,    nan,      5e-324, -1e-310,
                             1e-300, -1e-40,   6e-8,    -1e-3,   1e300,    -1e38,  65504.0,
                             0x1p56, -0x1p-56, 0x1p120, 0x1p-248, -0x1p254, 0x1p-255};
  constexpr std::size_t ns = sizeof(specials) / sizeof(specials[0]);
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool special = special_every != 0 && (i < ns || i % special_every == 0);
    const double d = special ? specials[(i + seed) % ns] : rng.normal() * scale;
    v.push_back(NumTraits<T>::from_double(d));
  }
  return v;
}

template <typename T>
DenseMatrix<T> fuzz_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                           std::size_t special_every = 7, double scale = 1.0) {
  const auto vals = fuzz_vec<T>(rows * cols, seed, special_every, scale);
  DenseMatrix<T> a(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) a(i, j) = vals[j * rows + i];
  return a;
}

template <typename T>
DenseMatrix<typename RefOf<T>::type> ref_copy(const DenseMatrix<T>& a) {
  DenseMatrix<typename RefOf<T>::type> out(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) = RefOf<T>::of(a(i, j));
  return out;
}

template <typename T>
void expect_matrix_repr(const DenseMatrix<T>& got, const DenseMatrix<typename RefOf<T>::type>& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t j = 0; j < got.cols(); ++j)
    for (std::size_t i = 0; i < got.rows(); ++i)
      ASSERT_TRUE(same_repr(got(i, j), RefOf<T>::value(want(i, j))))
          << NumTraits<T>::name() << " " << what << " differs at (" << i << ", " << j << ")";
}

// ---------------------------------------------------------------------------
// The plain loops the blocked/fused kernels replace
// ---------------------------------------------------------------------------

/// V[:, :keep] := V W[:wrows, :keep] as a loop of axpys into a zeroed
/// accumulator.
template <typename R>
void plain_update_basis(DenseMatrix<R>& v, const DenseMatrix<R>& w, std::size_t wrows,
                        std::size_t keep) {
  const std::size_t n = v.rows();
  DenseMatrix<R> acc(n, keep);  // zero-initialized
  for (std::size_t j = 0; j < keep; ++j)
    for (std::size_t l = 0; l < wrows; ++l)
      for (std::size_t i = 0; i < n; ++i) acc(i, j) = acc(i, j) + w(l, j) * v(i, l);
  for (std::size_t j = 0; j < keep; ++j)
    for (std::size_t i = 0; i < n; ++i) v(i, j) = acc(i, j);
}

/// Iterated CGS with separate dot, axpy and nrm2 passes; `passes` counts
/// the passes taken.
template <typename R>
R plain_orthogonalize(const DenseMatrix<R>& v, std::size_t cols, R* w, R* h, R norm_before,
                      int& passes) {
  const std::size_t n = v.rows();
  const R eta = NumTraits<R>::from_double(0.7071067811865475);
  const auto dot = [n](const R* x, const R* y) {
    R acc(0);
    for (std::size_t i = 0; i < n; ++i) acc = acc + x[i] * y[i];
    return acc;
  };
  for (std::size_t j = 0; j < cols; ++j) h[j] = R(0);
  R norm_after = norm_before;
  passes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ++passes;
    for (std::size_t j = 0; j < cols; ++j) {
      const R c = dot(v.col(j), w);
      h[j] += c;
      const R a = -c;
      for (std::size_t i = 0; i < n; ++i) w[i] = w[i] + a * v.col(j)[i];
    }
    norm_after = sqrt(dot(w, w));
    if (!is_number(norm_after)) return norm_after;
    if (norm_after > eta * norm_before) break;
    norm_before = norm_after;
  }
  return norm_after;
}

template <typename R>
void plain_rotation(DenseMatrix<R>& t, DenseMatrix<R>& z, std::size_t i, R cs, R sn) {
  const std::size_t n = t.rows();
  for (std::size_t j = 0; j < n; ++j) {
    const R x = t(i, j), y = t(i + 1, j);
    t(i, j) = cs * x + sn * y;
    t(i + 1, j) = cs * y - sn * x;
  }
  for (std::size_t r = 0; r < n; ++r) {
    const R x = t(r, i), y = t(r, i + 1);
    t(r, i) = cs * x + sn * y;
    t(r, i + 1) = cs * y - sn * x;
  }
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const R x = z(r, i), y = z(r, i + 1);
    z(r, i) = cs * x + sn * y;
    z(r, i + 1) = cs * y - sn * x;
  }
}

/// (I - beta v v^T) applied to `count` vectors x[c * step + i * stride].
template <typename R>
void plain_reflect(const R* v, R beta, int nr, R* x, std::size_t stride, std::size_t step,
                   std::size_t count) {
  for (std::size_t c = 0; c < count; ++c, x += step) {
    R s(0);
    for (int i = 0; i < nr; ++i) s = s + v[i] * x[i * stride];
    s = s * beta;
    for (int i = 0; i < nr; ++i) x[i * stride] = x[i * stride] - s * v[i];
  }
}

// ---------------------------------------------------------------------------
// Per-format checks
// ---------------------------------------------------------------------------

template <typename T>
void check_update_basis() {
  const std::size_t n = 23;
  for (const std::size_t keep : {1, 3, 4, 5, 13}) {
    const std::size_t wrows = keep + 3;
    const DenseMatrix<T> v0 = fuzz_matrix<T>(n, wrows + 1, 100 + keep);
    const DenseMatrix<T> w = fuzz_matrix<T>(wrows + 2, keep + 1, 200 + keep);
    DenseMatrix<T> v = v0;
    std::vector<typename kernels::Domain<T>::Value> scratch;
    kernels::update_basis(v, w, wrows, keep, scratch);
    auto ve = ref_copy(v0);
    plain_update_basis(ve, ref_copy(w), wrows, keep);
    expect_matrix_repr(v, ve, "update_basis keep=" + std::to_string(keep));
  }
}

/// One orthogonalize case: w against the first `cols` columns of v.
template <typename T>
int check_orthogonalize_case(const DenseMatrix<T>& v, std::size_t cols, const std::vector<T>& w0,
                             T norm_before, const std::string& what) {
  using R = typename RefOf<T>::type;
  const std::size_t n = v.rows();
  ArnoldiWorkspace<T> ws;
  ws.reserve(n, v.cols());
  ws.w = w0;
  std::vector<T> h(cols + 1, T(0));
  const T norm = detail::orthogonalize(v, cols, ws, h.data(), norm_before);

  const auto ve = ref_copy(v);
  std::vector<R> we, he(cols + 1, R(0));
  for (const T& x : w0) we.push_back(RefOf<T>::of(x));
  int passes = 0;
  const R norme = plain_orthogonalize(ve, cols, we.data(), he.data(), RefOf<T>::of(norm_before),
                                      passes);
  EXPECT_TRUE(same_repr(norm, RefOf<T>::value(norme))) << NumTraits<T>::name() << " " << what
                                                       << ": norm";
  for (std::size_t j = 0; j < cols; ++j)
    EXPECT_TRUE(same_repr(h[j], RefOf<T>::value(he[j])))
        << NumTraits<T>::name() << " " << what << ": h[" << j << "]";
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(same_repr(ws.w[i], RefOf<T>::value(we[i])))
        << NumTraits<T>::name() << " " << what << ": w[" << i << "]";
  return passes;
}

template <typename T>
void check_orthogonalize() {
  const std::size_t n = 29, maxcols = 7;
  // Clean, nearly orthonormal columns (seeded normals scaled by 1/sqrt(n)).
  DenseMatrix<T> v = fuzz_matrix<T>(n, maxcols, 300, 0, 0.18);
  const T one = T(1);
  std::set<int> passes_seen;
  for (const std::size_t cols : {std::size_t{0}, std::size_t{1}, maxcols}) {
    const std::string tag = "cols=" + std::to_string(cols);
    // A generic direction: typically one pass.
    passes_seen.insert(
        check_orthogonalize_case(v, cols, fuzz_vec<T>(n, 400 + cols, 0, 0.18), one, tag + " random"));
    // Inside the span up to a small perturbation: the first pass cancels
    // most of w, so DGKS asks for more.
    std::vector<T> in_span(n, T(0));
    for (std::size_t j = 0; j < cols; ++j)
      for (std::size_t i = 0; i < n; ++i) in_span[i] = in_span[i] + v(i, j);
    const auto noise = fuzz_vec<T>(n, 500 + cols, 0, 1e-3);
    for (std::size_t i = 0; i < n; ++i) in_span[i] = in_span[i] + noise[i];
    passes_seen.insert(check_orthogonalize_case(v, cols, in_span, one, tag + " near span"));
    // Exactly a basis column: the remainder is rounding noise every pass.
    if (cols > 0) {
      const std::vector<T> col(v.col(cols - 1), v.col(cols - 1) + n);
      passes_seen.insert(check_orthogonalize_case(v, cols, col, one, tag + " in span"));
    }
    // Specials in w itself.
    passes_seen.insert(check_orthogonalize_case(v, cols, fuzz_vec<T>(n, 600 + cols), one,
                                                tag + " special w"));
  }
  // A NaN/NaR (or inf) in the middle of one column: the dot of that column
  // poisons w mid-pass and the early exit must leave the same w behind.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e300}) {
    DenseMatrix<T> vb = v;
    vb(n / 2, 3) = NumTraits<T>::from_double(bad);
    check_orthogonalize_case(vb, maxcols, fuzz_vec<T>(n, 700, 0, 0.18), one,
                             "poisoned column (" + std::to_string(bad) + ")");
  }
  if (NumTraits<T>::bits >= 16) {
    EXPECT_TRUE(passes_seen.count(1) && passes_seen.count(2) && passes_seen.count(3))
        << NumTraits<T>::name() << ": the cases should cover one, two and three DGKS passes";
  }
}

template <typename T>
void check_rotation() {
  using R = typename RefOf<T>::type;
  const std::size_t n = 9;
  const T cs = NumTraits<T>::from_double(0.8), sn = NumTraits<T>::from_double(-0.6);
  const T specials[] = {cs, NumTraits<T>::from_double(std::numeric_limits<double>::quiet_NaN()),
                        NumTraits<T>::from_double(-0.0), NumTraits<T>::from_double(1e-310)};
  for (const std::size_t i : {std::size_t{0}, std::size_t{4}, n - 2}) {
    for (const T c : specials) {
      DenseMatrix<T> t = fuzz_matrix<T>(n, n, 800 + i);
      DenseMatrix<T> z = fuzz_matrix<T>(n + 3, n, 900 + i);
      auto te = ref_copy(t), ze = ref_copy(z);
      detail::apply_rotation_similarity(t, z, i, c, sn);
      plain_rotation<R>(te, ze, i, RefOf<T>::of(c), RefOf<T>::of(sn));
      expect_matrix_repr(t, te, "rotation t, i=" + std::to_string(i));
      expect_matrix_repr(z, ze, "rotation z, i=" + std::to_string(i));
    }
  }
}

template <typename T>
void check_reflect() {
  using R = typename RefOf<T>::type;
  using D = kernels::Domain<T>;
  const auto vv = fuzz_vec<T>(3, 1000, 0);
  const T beta = NumTraits<T>::from_double(1.25);
  for (const int nr : {2, 3}) {
    for (std::size_t count = 0; count <= 5; ++count) {
      // Row-wise (stride = rows, step = 1) on a 6 x 6 block with specials.
      DenseMatrix<T> x = fuzz_matrix<T>(6, 6, 1100 + count);
      auto xe = ref_copy(x);
      typename D::Value vd[3] = {};
      for (int i = 0; i < nr; ++i) vd[i] = D::load(vv[i]);
      detail::reflect(vd, D::load(beta), nr, &x(0, 1), x.rows(), 1, count);
      R ve[3] = {};
      for (int i = 0; i < nr; ++i) ve[i] = RefOf<T>::of(vv[i]);
      plain_reflect(ve, RefOf<T>::of(beta), nr, &xe(0, 1), xe.rows(), 1, count);
      expect_matrix_repr(x, xe, "reflect rows nr=" + std::to_string(nr));
      // Column-wise (stride 1, step = rows).
      detail::reflect(vd, D::load(beta), nr, &x(1, 0), 1, x.rows(), count);
      plain_reflect(ve, RefOf<T>::of(beta), nr, &xe(1, 0), 1, xe.rows(), count);
      expect_matrix_repr(x, xe, "reflect cols nr=" + std::to_string(nr));
    }
  }
}

template <typename T>
void check_all() {
  check_update_basis<T>();
  check_orthogonalize<T>();
  check_rotation<T>();
  check_reflect<T>();
}

TEST(FusedKernels, BitIdenticalToPlainLoopsForAllRegistryFormats) {
  for (const FormatInfo& info : all_formats()) {
    SCOPED_TRACE(info.name);
    dispatch_format(info.id, [&](auto tag) { check_all<typename decltype(tag)::type>(); });
  }
}

}  // namespace
}  // namespace mfla
