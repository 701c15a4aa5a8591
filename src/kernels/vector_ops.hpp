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
// every format here. In the decoded domain update_basis is a
// register-blocked product with the per-element operations of that loop.
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
///
/// kDecoded tells the multi-term loops whether loads and stores cost
/// anything. Where they do, blocking, fusing passes and running two
/// chains side by side save conversions. In T itself there is nothing to
/// save and the reshaped loops measured slower (the blocked basis update
/// for float and the 8-bit tables, the fused Gram–Schmidt for the 16-bit
/// tables and float128, the paired reflector for float and double), so
/// those loops keep their plain shape there.
template <typename T>
struct Domain {
  using Value = T;
  static constexpr bool kDecoded = false;
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
  static constexpr bool kDecoded = true;
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

namespace detail {

/// out[c * stride] := sum over l < len of w[l * ldw + c] * x[l], for the B
/// columns c < B side by side: each sum starts at zero and adds its terms
/// in ascending l, as an axpy loop over l would, and is stored once.
template <typename T, int B>
[[gnu::always_inline]] inline void row_times_block(const typename Domain<T>::Value* x,
                                                   const typename Domain<T>::Value* w,
                                                   std::size_t ldw, std::size_t len, T* out,
                                                   std::size_t stride) noexcept {
  using D = Domain<T>;
  typename D::Value acc[B];
  for (int c = 0; c < B; ++c) acc[c] = D::zero();
  for (std::size_t l = 0; l < len; ++l) {
    const typename D::Value xl = x[l];
    for (int c = 0; c < B; ++c) acc[c] = D::add(acc[c], D::mul(w[l * ldw + c], xl));
  }
  for (int c = 0; c < B; ++c) out[c * stride] = D::store(acc[c]);
}

}  // namespace detail

/// Update the leading `keep` columns of V in place: V[:, :keep] := V * W,
/// reading only W's leading wrows x keep block (W may be larger; this
/// avoids materializing top_left views). Output (i, j) is the sum from
/// zero of w(l, j) * v(i, l) in ascending l, as a loop of axpys forms it.
///
/// In T itself it is that loop of axpys into an n x keep accumulator: the
/// full-length streaming loop keeps its vectorization and table-row
/// hoisting, and measured fastest for the native and table formats. In
/// the decoded domain the product is register-blocked: W's block is
/// decoded once, each row's wrows inputs v(i, l) once, and four output
/// columns accumulate decoded side by side, each encoded once; a row's
/// outputs depend on that row alone, so they overwrite it in place.
/// `scratch` holds n * keep values of T or wrows * (keep + 1) decoded
/// values; recycling it across restarts makes the basis update
/// allocation-free at steady state.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t wrows,
                  std::size_t keep, std::vector<typename Domain<T>::Value>& scratch) {
  using D = Domain<T>;
  const std::size_t n = v.rows();
  if constexpr (!D::kDecoded) {
    scratch.assign(n * keep, T(0));
    for (std::size_t j = 0; j < keep; ++j)
      for (std::size_t l = 0; l < wrows; ++l) axpy(n, w(l, j), v.col(l), scratch.data() + j * n);
    for (std::size_t j = 0; j < keep; ++j) {
      T* dst = v.col(j);
      const T* src = scratch.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
  } else {
    scratch.resize(wrows * (keep + 1));
    typename D::Value* const wd = scratch.data();  // row-major: wd[l * keep + j] = w(l, j)
    typename D::Value* const xr = wd + wrows * keep;
    for (std::size_t l = 0; l < wrows; ++l)
      for (std::size_t j = 0; j < keep; ++j) wd[l * keep + j] = D::load(w(l, j));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < wrows; ++l) xr[l] = D::load(v(i, l));
      T* const out = &v(i, 0);  // out[j * n] is v(i, j)
      std::size_t j = 0;
      for (; j + 4 <= keep; j += 4)
        detail::row_times_block<T, 4>(xr, wd + j, keep, wrows, out + j * n, n);
      switch (keep - j) {
        case 3: detail::row_times_block<T, 3>(xr, wd + j, keep, wrows, out + j * n, n); break;
        case 2: detail::row_times_block<T, 2>(xr, wd + j, keep, wrows, out + j * n, n); break;
        case 1: detail::row_times_block<T, 1>(xr, wd + j, keep, wrows, out + j * n, n); break;
        default: break;
      }
    }
  }
}

/// Convenience overload: whole W, throwaway scratch.
template <typename T>
void update_basis(DenseMatrix<T>& v, const DenseMatrix<T>& w, std::size_t keep) {
  std::vector<typename Domain<T>::Value> scratch;
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
