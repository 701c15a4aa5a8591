// Arnoldi expansion with iterated classical Gram–Schmidt (DGKS criterion),
// the inner loop of the Krylov–Schur solver.
//
// Everything runs in the working scalar type T: inner products, norms and
// the normalization — the paper's subject is precisely how these kernels
// behave in each format.
//
// The hot loop is allocation-free at steady state: every scratch vector a
// step needs (the matvec target w, the projection coefficients h, the
// discard buffer for deflation retries) lives in an ArnoldiWorkspace<T>
// owned by the solver and sized once per solve. The workspace-free
// arnoldi_step overload below keeps the one-off call sites (tests,
// benchmarks) unchanged; it allocates a fresh workspace per call.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "arith/traits.hpp"
#include "kernels/vector_ops.hpp"
#include "dense/matrix.hpp"
#include "support/rng.hpp"

namespace mfla {

enum class ExpandStatus {
  ok,          // regular step, beta > 0
  deflated,    // invariant subspace found: beta = 0, fresh random direction
  failed,      // non-finite values appeared (overflow / NaR poisoning)
};

/// Per-solve scratch for the Arnoldi inner loop. reserve() sizes every
/// buffer for the largest step of the solve; after that, arnoldi_step
/// performs zero heap allocations on its regular (non-deflation) path —
/// verified by tests/test_arnoldi_workspace.cpp with an operator-new hook.
template <typename T>
struct ArnoldiWorkspace {
  std::vector<T> w;     // n: matvec target / candidate basis vector
  std::vector<T> h;     // maxdim+1: projection coefficients of one step
  std::vector<T> dump;  // maxdim+1: discarded coefficients (deflation only)

  void reserve(std::size_t n, std::size_t maxdim) {
    w.resize(n);
    h.resize(maxdim + 1);
    dump.resize(maxdim + 1);
  }
};

namespace detail {

/// Orthogonalize w against the first `cols` columns of v with iterated CGS
/// (eta = 1/sqrt(2)); coefficients are accumulated into h[0..cols), which
/// is (re)initialized here — callers may pass recycled buffers.
/// Returns the norm of the orthogonalized w (in T), or NaR/NaN on failure.
template <typename T>
T orthogonalize(const DenseMatrix<T>& v, std::size_t cols, T* w, T* h, T norm_before) {
  const std::size_t n = v.rows();
  const T eta = NumTraits<T>::from_double(0.7071067811865475);
  for (std::size_t j = 0; j < cols; ++j) h[j] = T(0);
  T norm_after = norm_before;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t j = 0; j < cols; ++j) {
      const T c = kernels::dot(n, v.col(j), w);
      h[j] += c;
      kernels::axpy(n, -c, v.col(j), w);
    }
    norm_after = kernels::nrm2(n, w);
    if (!is_number(norm_after)) return norm_after;
    if (norm_after > eta * norm_before) break;  // DGKS: no further pass needed
    norm_before = norm_after;
  }
  return norm_after;
}

/// Fill w with a random unit vector (generated in double, converted to T).
template <typename T>
void random_direction(std::size_t n, Rng& rng, T* w) {
  const std::vector<double> u = rng.unit_vector(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = NumTraits<T>::from_double(u[i]);
}

}  // namespace detail

/// One Arnoldi step: w = A v_j, orthogonalized against V[:, 0..j] with
/// coefficients stored into s(0..j, j) and the subdiagonal beta into
/// s(j+1, j); writes v_{j+1} = w/beta.
///
/// On invariant-subspace breakdown (beta ~ 0) the subdiagonal is set to
/// exact zero and a fresh random direction (orthogonalized) continues the
/// basis, as in ArnoldiMethod.jl.
///
/// `ws` must be reserve()d for (v.rows(), at least j+1); all scratch comes
/// from it, so the regular path allocates nothing.
template <typename T, class Op>
ExpandStatus arnoldi_step(const Op& a, DenseMatrix<T>& v, DenseMatrix<T>& s, std::size_t j,
                          Rng& rng, ArnoldiWorkspace<T>& ws) {
  const std::size_t n = v.rows();
  T* const w = ws.w.data();
  a.matvec(v.col(j), w);

  const T norm_before = kernels::nrm2(n, w);
  if (!is_number(norm_before)) return ExpandStatus::failed;

  T* const h = ws.h.data();
  T beta = detail::orthogonalize(v, j + 1, w, h, norm_before);
  if (!is_number(beta)) return ExpandStatus::failed;
  for (std::size_t i = 0; i <= j; ++i) {
    if (!is_number(h[i])) return ExpandStatus::failed;
    s(i, j) = h[i];
  }

  // Breakdown threshold: beta negligible relative to ||A v_j||.
  const double beta_d = NumTraits<T>::to_double(beta);
  const double scale_d = NumTraits<T>::to_double(norm_before);
  const bool breakdown =
      beta_d <= 0.0 || beta_d < NumTraits<T>::epsilon() * scale_d;

  if (!breakdown) {
    const T inv = T(1) / beta;
    T* next = v.col(j + 1);
    for (std::size_t i = 0; i < n; ++i) next[i] = w[i] * inv;
    s(j + 1, j) = beta;
    return ExpandStatus::ok;
  }

  // Invariant subspace: restart the basis with a random direction. A random
  // unit vector's component orthogonal to a (j+1)-dimensional subspace has
  // magnitude ~ sqrt(1 - (j+1)/n), so accept well below that scale and only
  // reject the rounding-noise floor.
  s(j + 1, j) = T(0);
  const double accept = std::max(0.05 / std::sqrt(static_cast<double>(n)),
                                 64.0 * NumTraits<T>::epsilon());
  for (int attempt = 0; attempt < 6; ++attempt) {
    detail::random_direction(n, rng, w);
    const T nrm = detail::orthogonalize(v, j + 1, w, ws.dump.data(), T(1));
    if (!is_number(nrm)) return ExpandStatus::failed;
    if (NumTraits<T>::to_double(nrm) > accept) {
      const T inv = T(1) / nrm;
      T* next = v.col(j + 1);
      for (std::size_t i = 0; i < n; ++i) next[i] = w[i] * inv;
      return ExpandStatus::deflated;
    }
  }
  return ExpandStatus::failed;
}

/// Convenience overload with a throwaway workspace (one-off call sites).
template <typename T, class Op>
ExpandStatus arnoldi_step(const Op& a, DenseMatrix<T>& v, DenseMatrix<T>& s, std::size_t j,
                          Rng& rng) {
  ArnoldiWorkspace<T> ws;
  ws.reserve(v.rows(), j + 1);
  return arnoldi_step(a, v, s, j, rng, ws);
}

}  // namespace mfla
