// Householder reduction of a dense square matrix to upper Hessenberg form,
// with accumulation of the orthogonal similarity.
//
// Used by the Krylov–Schur restart: after truncation the Rayleigh quotient
// matrix is (quasi-triangular + spike + Hessenberg extension); it must be
// restored to Hessenberg form before the Francis QR sweep.
//
// The reflector applications run through the kernel layer
// (kernels/vector_ops.hpp) as contiguous column dot/axpy operations. The
// row-wise right/Q applications are expressed column-by-column; per element the
// accumulation order (ascending j) is unchanged, and commuting a
// correctly rounded multiply or folding a negation into the axpy
// coefficient is exact in every format here, so results are bit-identical
// to the direct row-wise loops.
#pragma once

#include <cstddef>
#include <vector>

#include "arith/quad.hpp"
#include "dense/matrix.hpp"
#include "kernels/vector_ops.hpp"

namespace mfla {

/// Reflector scratch for hessenberg_reduce, reusable across calls (the
/// Krylov–Schur solver re-reduces its Rayleigh matrix every restart).
template <typename T>
struct HessenbergScratch {
  std::vector<T> v;  // reflector
  std::vector<T> w;  // row-sum accumulator
};

/// In place: a becomes upper Hessenberg H = Q^T A Q; q (same size,
/// pre-initialized, typically identity) becomes q·Q.
/// Returns false if a non-finite value appeared (low-precision overflow).
/// `scratch` buffers are resized here and recycled by repeat callers.
template <typename T>
bool hessenberg_reduce(DenseMatrix<T>& a, DenseMatrix<T>& q, HessenbergScratch<T>& scratch) {
  const std::size_t n = a.rows();
  if (n <= 2) return true;
  scratch.v.resize(n);
  scratch.w.resize(n > q.rows() ? n : q.rows());
  std::vector<T>& v = scratch.v;
  std::vector<T>& w = scratch.w;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder reflector annihilating a(k+2..n-1, k).
    T scale(0);
    for (std::size_t i = k + 1; i < n; ++i) scale += abs(a(i, k));
    if (!is_number(scale)) return false;
    if (scale == T(0)) continue;
    const std::size_t len = n - (k + 1);  // active rows/cols k+1..n-1
    for (std::size_t i = k + 1; i < n; ++i) v[i] = a(i, k) / scale;
    T alpha2 = kernels::dot(len, v.data() + k + 1, v.data() + k + 1);
    T alpha = sqrt(alpha2);
    if (!is_number(alpha) || alpha == T(0)) continue;
    if (v[k + 1] > T(0)) alpha = -alpha;
    // v := x - alpha e1, beta = 1/(alpha^2 - alpha x1) so P = I - beta v v^T.
    const T denom = alpha2 - v[k + 1] * alpha;
    if (denom == T(0)) continue;
    const T beta = T(1) / denom;
    v[k + 1] = v[k + 1] - alpha;
    if (!is_number(beta)) return false;

    // Apply from the left: A := P A on rows k+1..n-1 (contiguous in each
    // column): s = beta * v^T a_j, then a_j -= s v.
    for (std::size_t j = 0; j < n; ++j) {
      T* colj = a.col(j) + (k + 1);
      T s = kernels::dot(len, v.data() + k + 1, colj);
      s *= beta;
      kernels::axpy(len, -s, v.data() + k + 1, colj);
    }
    // Apply from the right: A := A P on cols k+1..n-1. Row-wise sums are
    // built column-by-column: w = beta * A[:, k+1..n) v, then a_j -= v_j w.
    for (std::size_t i = 0; i < n; ++i) w[i] = T(0);
    for (std::size_t j = k + 1; j < n; ++j) kernels::axpy(n, v[j], a.col(j), w.data());
    kernels::scal(n, beta, w.data());
    for (std::size_t j = k + 1; j < n; ++j) kernels::axpy(n, -v[j], w.data(), a.col(j));
    // Accumulate: Q := Q P (same shape as the right application).
    const std::size_t qr = q.rows();
    for (std::size_t i = 0; i < qr; ++i) w[i] = T(0);
    for (std::size_t j = k + 1; j < n; ++j) kernels::axpy(qr, v[j], q.col(j), w.data());
    kernels::scal(qr, beta, w.data());
    for (std::size_t j = k + 1; j < n; ++j) kernels::axpy(qr, -v[j], w.data(), q.col(j));
    // Restore the exact Hessenberg pattern.
    a(k + 1, k) = alpha * scale;
    for (std::size_t i = k + 2; i < n; ++i) a(i, k) = T(0);
  }
  // Validate finiteness once at the end.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      if (!is_number(a(i, j))) return false;
  return true;
}

/// Convenience overload with throwaway scratch (one-off call sites).
template <typename T>
bool hessenberg_reduce(DenseMatrix<T>& a, DenseMatrix<T>& q) {
  HessenbergScratch<T> scratch;
  return hessenberg_reduce(a, q, scratch);
}

}  // namespace mfla
