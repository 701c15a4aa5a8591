// Reordering of a real Schur form: bring selected eigenvalues to the top
// via adjacent block swaps (LAPACK dtrexc/dlaexc approach).
//
// Adjacent 1x1-1x1 swaps use a Givens rotation; swaps involving 2x2 blocks
// solve a small Sylvester equation and re-orthonormalize (direct swap).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "arith/traits.hpp"
#include "dense/matrix.hpp"
#include "dense/schur.hpp"

namespace mfla {
namespace detail {

/// Gaussian elimination with partial pivoting for tiny systems (n <= 4).
/// Returns false when the pivot collapses (near-singular system).
template <typename T>
bool solve_small(T (&a)[4][4], T (&b)[4], std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (abs(a[i][k]) > abs(a[piv][k])) piv = i;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[k][j], a[piv][j]);
      std::swap(b[k], b[piv]);
    }
    const T p = a[k][k];
    if (p == T(0) || !is_number(p)) return false;
    for (std::size_t i = k + 1; i < n; ++i) {
      const T f = a[i][k] / p;
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    T s = b[k];
    for (std::size_t j = k + 1; j < n; ++j) s -= a[k][j] * b[j];
    b[k] = s / a[k][k];
    if (!is_number(b[k])) return false;
  }
  return true;
}

/// Swap the adjacent diagonal blocks of sizes p (at `i`) and q (at `i+p`).
/// Returns false if the swap is ill-conditioned and was skipped.
template <typename T>
bool swap_adjacent_blocks(DenseMatrix<T>& t, DenseMatrix<T>& z, std::size_t i, int p, int q) {
  if (p == 1 && q == 1) {
    const T t11 = t(i, i), t12 = t(i, i + 1), t22 = t(i + 1, i + 1);
    T x0 = t12, x1 = t22 - t11;
    if (abs(x1) == T(0)) return true;  // equal eigenvalues: nothing to do
    // dlartg-style scaling before the sum of squares (see schur.hpp).
    const T mx = (abs(x0) > abs(x1)) ? abs(x0) : abs(x1);
    if (!is_number(mx) || mx == T(0)) return false;
    x0 = x0 / mx;
    x1 = x1 / mx;
    const T r = sqrt(x0 * x0 + x1 * x1);
    if (!is_number(r) || r == T(0)) return false;
    apply_rotation_similarity(t, z, i, x0 / r, x1 / r);
    t(i + 1, i) = T(0);
    return true;
  }
  // Direct swap: solve A11 X - X A22 = A12 (pq <= 4 unknowns). Every
  // temporary is at most 4 x 4 and lives on the stack; block sizes are 1
  // or 2, and the check says so to the compiler as well.
  if (p > 2 || q > 2) return false;
  const int m = p + q;
  T sys[4][4], rhs[4];
  for (auto& row : sys)
    for (T& x : row) x = T(0);
  for (int r = 0; r < p; ++r) {
    for (int c = 0; c < q; ++c) {
      const int eq = r * q + c;
      rhs[eq] = t(i + r, i + p + c);
      for (int k = 0; k < p; ++k) sys[eq][k * q + c] += t(i + r, i + k);
      for (int k = 0; k < q; ++k) sys[eq][r * q + k] -= t(i + p + k, i + p + c);
    }
  }
  if (!solve_small(sys, rhs, static_cast<std::size_t>(p * q))) return false;
  // QR of K = [-X; I_q] (m x q) by Householder; accumulate full Q (m x m).
  T k[4][2], qm[4][4];
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < q; ++c) k[r][c] = T(0);
    for (int c = 0; c < m; ++c) qm[r][c] = T(r == c ? 1 : 0);
  }
  for (int r = 0; r < p; ++r)
    for (int c = 0; c < q; ++c) k[r][c] = -rhs[r * q + c];
  for (int c = 0; c < q; ++c) k[p + c][c] = T(1);
  for (int col = 0; col < q; ++col) {
    T norm2(0);
    for (int r = col; r < m; ++r) norm2 += k[r][col] * k[r][col];
    T alpha = sqrt(norm2);
    if (!is_number(alpha) || alpha == T(0)) return false;
    if (k[col][col] > T(0)) alpha = -alpha;
    T v[4] = {T(0), T(0), T(0), T(0)};
    for (int r = col; r < m; ++r) v[r] = k[r][col];
    v[col] -= alpha;
    const T denom = norm2 - k[col][col] * alpha;
    if (denom == T(0) || !is_number(denom)) return false;
    const T beta = T(1) / denom;
    for (int c = col; c < q; ++c) {  // K := P K
      T s(0);
      for (int r = col; r < m; ++r) s += v[r] * k[r][c];
      s *= beta;
      for (int r = col; r < m; ++r) k[r][c] -= s * v[r];
    }
    for (int r = 0; r < m; ++r) {  // Q := Q P
      T s(0);
      for (int c = col; c < m; ++c) s += qm[r][c] * v[c];
      s *= beta;
      for (int c = col; c < m; ++c) qm[r][c] -= s * v[c];
    }
  }
  // Similarity on the full matrix: rows/cols i..i+m-1. Each column's (each
  // row's) new entries depend on that column (row) alone.
  const std::size_t n = t.rows();
  T acc[4];
  for (std::size_t j = 0; j < n; ++j) {  // T[rows, :] := Q^T T[rows, :]
    for (int r = 0; r < m; ++r) {
      T s(0);
      for (int l = 0; l < m; ++l) s += qm[l][r] * t(i + l, j);
      acc[r] = s;
    }
    for (int r = 0; r < m; ++r) t(i + r, j) = acc[r];
  }
  for (std::size_t r = 0; r < n; ++r) {  // T[:, cols] := T[:, cols] Q
    for (int c = 0; c < m; ++c) {
      T s(0);
      for (int l = 0; l < m; ++l) s += t(r, i + l) * qm[l][c];
      acc[c] = s;
    }
    for (int c = 0; c < m; ++c) t(r, i + c) = acc[c];
  }
  for (std::size_t r = 0; r < z.rows(); ++r) {  // Z[:, cols] := Z[:, cols] Q
    for (int c = 0; c < m; ++c) {
      T s(0);
      for (int l = 0; l < m; ++l) s += z(r, i + l) * qm[l][c];
      acc[c] = s;
    }
    for (int c = 0; c < m; ++c) z(r, i + c) = acc[c];
  }
  // Enforce the block-triangular pattern: new leading block has size q.
  for (int r = q; r < m; ++r)
    for (int c = 0; c < q; ++c) t(i + r, i + c) = T(0);
  // Standardize the two new blocks where applicable.
  if (q == 2) standardize_2x2(t, z, i);
  if (p == 2) standardize_2x2(t, z, i + static_cast<std::size_t>(q));
  return true;
}

}  // namespace detail

/// A diagonal block of a real Schur form with its eigenvalue (for ordering
/// decisions, held in double: exact for real eigenvalues of every format).
struct SchurBlock {
  std::size_t start = 0;
  int size = 1;
  double re = 0.0;
  double im = 0.0;
};

/// The diagonal blocks of t in order, into `blocks` (cleared first; no
/// allocation once its capacity covers them).
template <typename T>
void schur_blocks(const DenseMatrix<T>& t, std::vector<SchurBlock>& blocks) {
  blocks.clear();
  const std::size_t n = t.rows();
  std::size_t i = 0;
  while (i < n) {
    SchurBlock b;
    b.start = i;
    T re[2] = {t(i, i), T(0)}, im[2] = {T(0), T(0)};
    if (i + 1 < n && t(i + 1, i) != T(0)) {
      b.size = 2;
      block_eigenvalues(t, i, re, im);
    }
    b.re = NumTraits<T>::to_double(re[0]);
    b.im = NumTraits<T>::to_double(im[0]);
    blocks.push_back(b);
    i += static_cast<std::size_t>(b.size);
  }
}

template <typename T>
[[nodiscard]] std::vector<SchurBlock> schur_blocks(const DenseMatrix<T>& t) {
  std::vector<SchurBlock> blocks;
  schur_blocks(t, blocks);
  return blocks;
}

/// Stable-sort the Schur blocks so that `prefer(a, b) == true` means block a
/// comes before block b (e.g. larger |λ| first). Uses adjacent swaps only;
/// `blocks` is scratch (recycled by repeat callers).
template <typename T>
void reorder_schur(DenseMatrix<T>& t, DenseMatrix<T>& z,
                   const std::function<bool(const SchurBlock&, const SchurBlock&)>& prefer,
                   std::vector<SchurBlock>& blocks) {
  schur_blocks(t, blocks);
  const std::size_t nb = blocks.size();
  if (nb < 2) return;
  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ < nb * nb + 4) {
    changed = false;
    for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
      if (prefer(blocks[b + 1], blocks[b]) && !prefer(blocks[b], blocks[b + 1])) {
        const std::size_t start = blocks[b].start;
        if (detail::swap_adjacent_blocks(t, z, start, blocks[b].size, blocks[b + 1].size)) {
          std::swap(blocks[b], blocks[b + 1]);
          blocks[b].start = start;
          blocks[b + 1].start = start + static_cast<std::size_t>(blocks[b].size);
          changed = true;
        }
      }
    }
  }
}

template <typename T>
void reorder_schur(DenseMatrix<T>& t, DenseMatrix<T>& z,
                   const std::function<bool(const SchurBlock&, const SchurBlock&)>& prefer) {
  std::vector<SchurBlock> blocks;
  reorder_schur(t, z, prefer, blocks);
}

}  // namespace mfla
