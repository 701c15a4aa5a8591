// Real Schur decomposition of an upper Hessenberg matrix via the Francis
// implicit double-shift QR iteration (LAPACK dlahqr-style, simplified for
// the small Rayleigh-quotient matrices that arise in Krylov–Schur).
//
// The result is quasi-triangular: 1x1 blocks for real eigenvalues and 2x2
// blocks for complex-conjugate pairs. 2x2 blocks with *real* eigenvalues
// are standardized to triangular form.
//
// Everything runs in the working scalar type T so that low-precision
// behavior is exactly that of the format under study. The bulge chase's
// reflector applications run in the kernels' arithmetic domain
// (kernels::Domain<T>): for the >=16-bit posits and takums the reflector
// is decoded once per bulge position and each matrix element is decoded
// and encoded once per application, with the same bits as T's operators.
// A non-finite value (overflow/NaR poisoning) aborts with failure, which
// the eigensolver classifies as non-convergence.
#pragma once

#include <cstddef>
#include <vector>

#include "arith/traits.hpp"
#include "dense/matrix.hpp"
#include "kernels/vector_ops.hpp"

namespace mfla {

struct SchurStatus {
  bool ok = false;
  int iterations = 0;
};

/// Householder reflector formulation (see make_reflector):
///  * lapack   — dlarfg-style, tau in [1,2]: robust in tapered formats.
///  * textbook — Golub & Van Loan beta = 2 v0^2/(sigma+v0^2): forms the
///    square of a small scale, where tapered-precision formats carry very
///    few fraction bits. Kept for the A4 ablation (docs/DESIGN.md §5), which
///    demonstrates a plausible mechanism behind the paper's posit anomaly.
enum class ReflectorStyle { lapack, textbook };

namespace detail {

/// (x_k, y_k) := (c x_k + s y_k, c y_k - s x_k) for the n element pairs
/// x[k * stride], y[k * stride], in the kernel domain.
template <typename T>
void rotate_pairs(typename kernels::Domain<T>::Value c, typename kernels::Domain<T>::Value s,
                  T* x, T* y, std::size_t stride, std::size_t n) noexcept {
  using D = kernels::Domain<T>;
  for (std::size_t k = 0; k < n; ++k, x += stride, y += stride) {
    const typename D::Value xk = D::load(*x), yk = D::load(*y);
    *x = D::store(D::add(D::mul(c, xk), D::mul(s, yk)));
    *y = D::store(D::sub(D::mul(c, yk), D::mul(s, xk)));
  }
}

/// Apply the Givens-like rotation [c s; -s c]^T ... [c s; -s c] as a
/// similarity on rows/cols (i, i+1) of t, and on columns of z. Runs in
/// kernels::Domain<T>: cs and sn are loaded once and each element is
/// loaded and stored once; each new element is c*x + s*y or c*y - s*x as
/// T's operators form it.
template <typename T>
void apply_rotation_similarity(DenseMatrix<T>& t, DenseMatrix<T>& z, std::size_t i, T cs, T sn) {
  using D = kernels::Domain<T>;
  const typename D::Value c = D::load(cs), s = D::load(sn);
  const std::size_t n = t.rows();
  rotate_pairs<T>(c, s, &t(i, 0), &t(i + 1, 0), n, n);  // left: rows i, i+1
  rotate_pairs<T>(c, s, t.col(i), t.col(i + 1), 1, n);   // right: cols i, i+1
  rotate_pairs<T>(c, s, z.col(i), z.col(i + 1), 1, z.rows());
}

/// Standardize the 2x2 block at (i, i): if its eigenvalues are real, rotate
/// the block to upper-triangular form.
template <typename T>
void standardize_2x2(DenseMatrix<T>& t, DenseMatrix<T>& z, std::size_t i) {
  const T a = t(i, i), b = t(i, i + 1), c = t(i + 1, i), d = t(i + 1, i + 1);
  if (c == T(0)) return;
  const T half(0.5);
  const T p = (a - d) * half;
  const T disc = p * p + b * c;
  if (!is_number(disc) || disc < T(0)) return;  // complex pair: keep the block
  const T sq = sqrt(disc);
  // Larger-magnitude root offset for stability.
  const T z1 = (p >= T(0)) ? (p + sq) : (p - sq);
  const T lambda = d + z1;  // one real eigenvalue
  // Rotation whose first column is the (normalized) eigenvector [b; λ-a]
  // or [λ-d; c], whichever is better conditioned.
  T x0 = b, x1 = lambda - a;
  const T y0 = lambda - d, y1 = c;
  if (abs(x0) + abs(x1) < abs(y0) + abs(y1)) {
    x0 = y0;
    x1 = y1;
  }
  // dlartg-style scaling: normalize by the larger component before squaring
  // so the sum of squares stays near magnitude one.
  const T mx = (abs(x0) > abs(x1)) ? abs(x0) : abs(x1);
  if (!is_number(mx) || mx == T(0)) return;
  x0 = x0 / mx;
  x1 = x1 / mx;
  const T r = sqrt(x0 * x0 + x1 * x1);
  if (!is_number(r) || r == T(0)) return;
  apply_rotation_similarity(t, z, i, x0 / r, x1 / r);
  t(i + 1, i) = T(0);
}

/// Householder reflector for a 2- or 3-vector: computes v (v[0] = 1) and
/// tau such that (I - tau v v^T) x = mu e1. Returns false for x = 0.
///
/// Uses the LAPACK dlarfg formulation: tau = (beta - alpha)/beta lies in
/// [1, 2] and v_i = x_i/(alpha - beta) with |alpha - beta| >= |beta|, so no
/// intermediate falls to the square of a small scale. (The textbook variant
/// that forms v0^2 ~ sigma^2 collapses in tapered formats, whose precision
/// decays away from magnitude one.)
template <typename T>
bool make_reflector(const T* x, int nr, T* v, T& tau,
                    ReflectorStyle style = ReflectorStyle::lapack) {
  T scale(0);
  for (int i = 0; i < nr; ++i) scale += abs(x[i]);
  if (scale == T(0) || !is_number(scale)) return false;
  const T alpha = x[0] / scale;
  T sigma(0);
  T xs[3];
  xs[0] = alpha;
  for (int i = 1; i < nr; ++i) {
    xs[i] = x[i] / scale;
    sigma += xs[i] * xs[i];
  }
  if (sigma == T(0)) return false;  // already in e1 direction
  const T mu = sqrt(alpha * alpha + sigma);
  if (style == ReflectorStyle::textbook) {
    const T v0 = (alpha <= T(0)) ? (alpha - mu) : (-sigma / (alpha + mu));
    if (v0 == T(0) || !is_number(v0)) return false;
    tau = T(2) * v0 * v0 / (sigma + v0 * v0);
    v[0] = T(1);
    for (int i = 1; i < nr; ++i) v[i] = xs[i] / v0;
    return is_number(tau);
  }
  const T beta = (alpha <= T(0)) ? mu : -mu;  // no cancellation in alpha - beta
  tau = (beta - alpha) / beta;
  const T denom = alpha - beta;
  if (denom == T(0) || !is_number(denom) || !is_number(tau)) return false;
  v[0] = T(1);
  for (int i = 1; i < nr; ++i) v[i] = xs[i] / denom;
  return true;
}

/// Applies the Householder reflector I - beta v v^T to `count` vectors of
/// Nr elements: vector c is x[c * step + i * stride], i < Nr. v and beta
/// come in the kernel domain. Nr is a template argument so that v and each
/// vector live in registers, out of reach of the stores through x. In the
/// decoded domain two vectors go through each iteration as independent
/// chains (see kernels::Domain::kDecoded).
/// v_i x_i is formed as x_i v_i in the row-wise applications; commuting a
/// correctly rounded multiply is exact in every format here.
template <int Nr, typename T>
void reflect(const typename kernels::Domain<T>::Value* v, typename kernels::Domain<T>::Value beta,
             T* x, std::size_t stride, std::size_t step, std::size_t count) {
  using D = kernels::Domain<T>;
  using V = typename D::Value;
  V vl[Nr];
  for (int i = 0; i < Nr; ++i) vl[i] = v[i];
  std::size_t c = 0;
  if constexpr (D::kDecoded) {
    for (; c + 2 <= count; c += 2, x += 2 * step) {
      T* const y = x + step;
      V xs[Nr], ys[Nr];
      V s = D::zero(), r = D::zero();
      for (int i = 0; i < Nr; ++i) {
        xs[i] = D::load(x[i * stride]);
        ys[i] = D::load(y[i * stride]);
        s = D::add(s, D::mul(vl[i], xs[i]));
        r = D::add(r, D::mul(vl[i], ys[i]));
      }
      s = D::mul(s, beta);
      r = D::mul(r, beta);
      for (int i = 0; i < Nr; ++i) {
        x[i * stride] = D::store(D::sub(xs[i], D::mul(s, vl[i])));
        y[i * stride] = D::store(D::sub(ys[i], D::mul(r, vl[i])));
      }
    }
  }
  for (; c < count; ++c, x += step) {
    V xs[Nr];
    V s = D::zero();
    for (int i = 0; i < Nr; ++i) {
      xs[i] = D::load(x[i * stride]);
      s = D::add(s, D::mul(vl[i], xs[i]));
    }
    s = D::mul(s, beta);
    for (int i = 0; i < Nr; ++i) x[i * stride] = D::store(D::sub(xs[i], D::mul(s, vl[i])));
  }
}

/// The same for a reflector of length nr (2 or 3, as the bulge chase
/// makes them).
template <typename T>
void reflect(const typename kernels::Domain<T>::Value* v, typename kernels::Domain<T>::Value beta,
             int nr, T* x, std::size_t stride, std::size_t step, std::size_t count) {
  if (nr == 3) reflect<3>(v, beta, x, stride, step, count);
  else reflect<2>(v, beta, x, stride, step, count);
}

}  // namespace detail

/// Francis double-shift QR: h (upper Hessenberg, modified in place into the
/// real Schur form) and z (orthogonal accumulator, pre-initialized).
template <typename T>
SchurStatus hessenberg_to_schur(DenseMatrix<T>& h, DenseMatrix<T>& z, int max_sweeps_per_eig = 40,
                                ReflectorStyle style = ReflectorStyle::lapack) {
  const auto n = static_cast<int>(h.rows());
  SchurStatus st;
  if (n == 0) {
    st.ok = true;
    return st;
  }
  const T eps = NumTraits<T>::from_double(NumTraits<T>::epsilon());

  // Overall scale fallback for deflation tests on zero diagonals.
  T anorm(0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= (j + 1 < n ? j + 1 : n - 1); ++i) anorm += abs(h(i, j));
  if (!is_number(anorm)) return st;
  if (anorm == T(0)) {
    st.ok = true;
    return st;
  }

  int hi = n - 1;
  int iter = 0;
  const int max_total = max_sweeps_per_eig * n + 20;
  while (hi >= 0) {
    if (++st.iterations > max_total) return st;

    // Look for a negligible subdiagonal entry.
    int lo = hi;
    while (lo > 0) {
      T s = abs(h(lo - 1, lo - 1)) + abs(h(lo, lo));
      if (s == T(0)) s = anorm;
      if (!(abs(h(lo, lo - 1)) > eps * s)) {  // also catches NaN/NaR
        if (!is_number(h(lo, lo - 1))) return st;
        h(lo, lo - 1) = T(0);
        break;
      }
      --lo;
    }

    if (lo == hi) {  // 1x1 block deflated
      hi -= 1;
      iter = 0;
      continue;
    }
    if (lo == hi - 1) {  // 2x2 block deflated
      detail::standardize_2x2(h, z, static_cast<std::size_t>(lo));
      hi -= 2;
      iter = 0;
      continue;
    }

    ++iter;
    // Shift from the trailing 2x2 (or exceptional shifts, dlahqr-style).
    T s11, s12, s21, s22;
    if (iter == 10 || iter == 20 || iter == 30) {
      const T s = abs(h(hi, hi - 1)) + abs(h(hi - 1, hi - 2));
      s11 = NumTraits<T>::from_double(0.75) * s + h(hi, hi);
      s12 = NumTraits<T>::from_double(-0.4375) * s;
      s21 = s;
      s22 = s11;
    } else {
      s11 = h(hi - 1, hi - 1);
      s12 = h(hi - 1, hi);
      s21 = h(hi, hi - 1);
      s22 = h(hi, hi);
    }
    const T tr = s11 + s22;
    const T det = s11 * s22 - s12 * s21;

    // First column of (H - aI)(H - bI) e1 on the active window.
    T x = h(lo, lo) * h(lo, lo) + h(lo, lo + 1) * h(lo + 1, lo) - tr * h(lo, lo) + det;
    T y = h(lo + 1, lo) * (h(lo, lo) + h(lo + 1, lo + 1) - tr);
    T w = h(lo + 1, lo) * h(lo + 2, lo + 1);
    if (!is_number(x) || !is_number(y) || !is_number(w)) return st;

    // Bulge chase.
    for (int k = lo; k <= hi - 1; ++k) {
      const int nr = (hi - k + 1 < 3) ? hi - k + 1 : 3;
      T col[3];
      if (k == lo) {
        col[0] = x;
        col[1] = y;
        col[2] = w;
      } else {
        col[0] = h(k, k - 1);
        col[1] = h(k + 1, k - 1);
        col[2] = (nr == 3) ? h(k + 2, k - 1) : T(0);
      }
      T v[3], beta;
      if (!detail::make_reflector(col, nr, v, beta, style)) continue;

      using D = kernels::Domain<T>;
      typename D::Value vd[3];
      for (int i = 0; i < nr; ++i) vd[i] = D::load(v[i]);
      const typename D::Value bd = D::load(beta);
      // Left: rows k..k+nr-1, all columns (small m: simplicity over flops).
      const int j0 = k > lo ? k - 1 : lo;
      detail::reflect(vd, bd, nr, &h(k, j0), 1, h.rows(), static_cast<std::size_t>(n - j0));
      // Right: columns k..k+nr-1.
      const int ilast = (k + nr + 1 < hi + 1) ? k + nr + 1 : hi + 1;
      detail::reflect(vd, bd, nr, &h(0, k), h.rows(), 1, static_cast<std::size_t>(ilast));
      // Accumulate into z.
      detail::reflect(vd, bd, nr, &z(0, k), z.rows(), 1, z.rows());
      // Clean the annihilated entries below the subdiagonal.
      if (k > lo) {
        for (int i = k + 1; i <= k + nr - 1; ++i) h(i, k - 1) = T(0);
      }
      if (!is_number(h(k + 1, k))) return st;
    }
  }
  st.ok = true;
  return st;
}

/// Eigenvalues of the 2x2 diagonal block at (i, i) of a real Schur form:
/// (re[0], im[0]) and (re[1], im[1]).
template <typename T>
void block_eigenvalues(const DenseMatrix<T>& t, std::size_t i, T* re, T* im) {
  const T half(0.5);
  const T a = t(i, i), b = t(i, i + 1), c = t(i + 1, i), d = t(i + 1, i + 1);
  const T p = (a - d) * half;
  const T disc = p * p + b * c;
  if (disc < T(0)) {  // complex pair
    const T sq = sqrt(-disc);
    re[0] = re[1] = d + p;
    im[0] = sq;
    im[1] = -sq;
  } else {  // real pair in an (unstandardized) 2x2 block
    const T sq = sqrt(disc);
    re[0] = d + p + sq;
    re[1] = d + p - sq;
    im[0] = im[1] = T(0);
  }
}

/// Eigenvalues (re, im) read off a real Schur form, in diagonal order.
template <typename T>
void schur_eigenvalues(const DenseMatrix<T>& t, std::vector<T>& re, std::vector<T>& im) {
  const std::size_t n = t.rows();
  re.assign(n, T(0));
  im.assign(n, T(0));
  std::size_t i = 0;
  while (i < n) {
    if (i + 1 == n || t(i + 1, i) == T(0)) {
      re[i] = t(i, i);
      ++i;
      continue;
    }
    block_eigenvalues(t, i, &re[i], &im[i]);
    i += 2;
  }
}

}  // namespace mfla
