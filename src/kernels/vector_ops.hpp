// BLAS-style kernels, templated over the scalar type.
//
// These are the kernels whose low-precision behavior the paper studies:
// accumulation happens in the working format T (no hidden wide
// accumulators), so overflow/rounding effects are exactly those of the
// format under evaluation. They are plain loops over Domain<T>: T's own
// operators (those of the ≤16-bit formats read the lookup tables of
// arith/lut.hpp), or for the ≥16-bit posits and takums T's decoded values,
// so a running sum stays decoded, a loop-invariant scalar is decoded once
// and no product is encoded only to be decoded again. gemv, matmul and
// update_basis are loops of axpy, which forms a_lj * v_i where they used
// to form v_i * a_lj; commuting a correctly rounded multiply is exact in
// every format here.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "arith/traits.hpp"
#include "dense/matrix.hpp"

namespace mfla {
namespace kernels {

/// The arithmetic a kernel runs in: Value is what it keeps between
/// operations, load/store convert at the array boundary. The primary
/// template is T itself.
template <typename T>
struct Domain {
  using Value = T;
  [[nodiscard]] static Value load(T x) noexcept { return x; }
  [[nodiscard]] static T store(Value x) noexcept { return x; }
  [[nodiscard]] static Value zero() noexcept { return T(0); }
  [[nodiscard]] static Value add(Value a, Value b) noexcept { return a + b; }
  [[nodiscard]] static Value sub(Value a, Value b) noexcept { return a - b; }
  [[nodiscard]] static Value mul(Value a, Value b) noexcept { return a * b; }
};

/// Decoded domain (arith/tapered.hpp): every op rounds exactly as T's
/// operator does, so the results are the same bits.
template <DecodedArithmetic T>
struct Domain<T> {
  using Value = typename T::Decoded;
  [[nodiscard]] static Value load(T x) noexcept { return T::decode(x); }
  [[nodiscard]] static T store(const Value& x) noexcept { return T::encode(x); }
  [[nodiscard]] static Value zero() noexcept { return {}; }
  [[nodiscard]] static Value add(const Value& a, const Value& b) noexcept {
    return T::add_decoded(a, b);
  }
  [[nodiscard]] static Value sub(const Value& a, const Value& b) noexcept {
    return T::add_decoded(a, -b);
  }
  [[nodiscard]] static Value mul(const Value& a, const Value& b) noexcept {
    return T::mul_decoded(a, b);
  }
};

template <typename T>
[[nodiscard]] T dot(std::size_t n, const T* x, const T* y) noexcept {
  using D = Domain<T>;
  typename D::Value acc = D::zero();
  for (std::size_t i = 0; i < n; ++i) acc = D::add(acc, D::mul(D::load(x[i]), D::load(y[i])));
  return D::store(acc);
}

template <typename T>
[[nodiscard]] T nrm2(std::size_t n, const T* x) noexcept {
  // Unqualified call: resolves to the mfla:: overload for native floats and
  // via ADL for the emulated formats.
  return sqrt(dot(n, x, x));
}

template <typename T>
void axpy(std::size_t n, T alpha, const T* x, T* y) noexcept {
  using D = Domain<T>;
  const typename D::Value a = D::load(alpha);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = D::store(D::add(D::load(y[i]), D::mul(a, D::load(x[i]))));
}

template <typename T>
void scal(std::size_t n, T alpha, T* x) noexcept {
  using D = Domain<T>;
  const typename D::Value a = D::load(alpha);
  for (std::size_t i = 0; i < n; ++i) x[i] = D::store(D::mul(D::load(x[i]), a));
}

/// y := A x (dense, column-major).
template <typename T>
void gemv(const DenseMatrix<T>& a, const T* x, T* y) noexcept {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < m; ++i) y[i] = T(0);
  for (std::size_t j = 0; j < n; ++j) axpy(m, x[j], a.col(j), y);
}

/// y := A^T x (dense, column-major).
template <typename T>
void gemv_t(const DenseMatrix<T>& a, const T* x, T* y) noexcept {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t j = 0; j < n; ++j) y[j] = dot(m, a.col(j), x);
}

/// C := A * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t l = 0; l < k; ++l) axpy(m, b(l, j), a.col(l), c.col(j));
  return c;
}

/// C := A^T * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  DenseMatrix<T> c(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) c(i, j) = dot(k, a.col(i), b.col(j));
  return c;
}

/// Update the leading `keep` columns of V in place: V[:, :keep] := V * W,
/// reading only W's leading wrows x keep block (W may be larger; this
/// avoids materializing top_left views). The product accumulates in
/// `scratch`, which is resized/zeroed here; recycling it across restarts
/// makes the basis update allocation-free at steady state.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                  std::size_t keep, std::vector<T>& scratch) {
  const std::size_t n = v.rows();
  scratch.assign(n * keep, T(0));
  for (std::size_t j = 0; j < keep; ++j)
    for (std::size_t l = 0; l < wrows; ++l) axpy(n, w(l, j), v.col(l), scratch.data() + j * n);
  for (std::size_t j = 0; j < keep; ++j) {
    T* dst = v.col(j);
    const T* src = scratch.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

/// Convenience overload: whole W, throwaway scratch.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t keep) {
  std::vector<T> scratch;
  update_basis(v, w, w.rows(), keep, scratch);
}

/// Frobenius norm computed in double (used by tests / diagnostics only).
template <typename T>
[[nodiscard]] double frobenius_norm_double(const DenseMatrix<T>& a) {
  double acc = 0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double v = static_cast<double>(a(i, j));
      acc += v * v;
    }
  return std::sqrt(acc);
}

}  // namespace kernels
}  // namespace mfla
