// partialschur(): the implicitly restarted Arnoldi method with Krylov–Schur
// restarts, modeled on ArnoldiMethod.jl (the solver the paper uses).
//
// Maintains the Krylov decomposition
//     A V_k = V_k S_k + v_k b_k^T
// with V orthonormal. Each cycle expands the basis to maxdim with Arnoldi
// steps, reduces the Rayleigh matrix (Schur + spike + Hessenberg extension)
// back to Hessenberg form, computes its real Schur form (Francis QR),
// reorders the wanted Ritz values to the front, locks converged pairs and
// truncates. Works for general real matrices; for symmetric inputs the
// Schur form is diagonal and the Schur vectors are the eigenvectors
// (paper §2.2).
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/arnoldi.hpp"
#include "kernels/vector_ops.hpp"
#include "dense/hessenberg.hpp"
#include "dense/schur.hpp"
#include "dense/schur_reorder.hpp"

namespace mfla {

enum class Which {
  largest_magnitude,
  smallest_magnitude,
  largest_real,
  smallest_real,
};

struct PartialSchurOptions {
  std::size_t nev = 10;
  Which which = Which::largest_magnitude;
  double tolerance = 0.0;    // 0: use NumTraits<T>::default_tolerance()
  std::size_t mindim = 0;    // 0: max(10, nev)
  std::size_t maxdim = 0;    // 0: max(20, 2*nev)
  int max_restarts = 100;
  std::uint64_t seed = 0x1234u;
  /// Optional shared start vector (unit 2-norm, in double); the experiment
  /// driver passes the same vector to every format for comparability.
  const std::vector<double>* start_vector = nullptr;
  /// Householder reflector formulation in the restart QR (ablation A4).
  ReflectorStyle reflector_style = ReflectorStyle::lapack;
};

template <typename T>
struct PartialSchurResult {
  bool converged = false;       // nev pairs converged
  std::size_t nconverged = 0;   // converged leading pairs
  int restarts = 0;
  std::size_t matvecs = 0;
  std::string failure;          // non-empty on hard failure
  DenseMatrix<T> q;             // n x k Schur vectors (k >= nev on success)
  DenseMatrix<T> r;             // k x k quasi-triangular Rayleigh block
  std::vector<double> eig_re;   // eigenvalues from r, in diagonal order
  std::vector<double> eig_im;
};

/// All restart-loop scratch of one partialschur/lanczos_eigs solve. Sized
/// once by reserve() and recycled across restarts, so the steady-state
/// cycle (expand -> reduce -> reorder -> truncate) reuses one set of
/// buffers instead of reallocating the Rayleigh/accumulator matrices, the
/// spike, the reflector scratch and the basis-update scratch every restart.
template <typename T>
struct KrylovSchurWorkspace {
  ArnoldiWorkspace<T> arnoldi;     // inner-loop scratch (allocation-free steps)
  DenseMatrix<T> t;                // m x m Rayleigh matrix -> Schur form
  DenseMatrix<T> q;                // m x m orthogonal accumulator
  HessenbergScratch<T> hessenberg; // reflector scratch of the re-reduction
  std::vector<typename kernels::Domain<T>::Value> basis_scratch;  // update_basis scratch
  std::vector<double> spike;       // residual couplings b^T q
  std::vector<SchurBlock> blocks;  // diagonal blocks of t (reorder, convergence test)

  /// Sizes every buffer for an n x (maxdim+1) basis. After that a restart
  /// cycle allocates nothing on its regular path (tests/
  /// test_arnoldi_workspace.cpp); a deflation's random direction still
  /// does.
  void reserve(std::size_t n, std::size_t maxdim) {
    arnoldi.reserve(n, maxdim);
    t.resize(maxdim, maxdim);
    q.resize(maxdim, maxdim);
    hessenberg.v.resize(maxdim);
    hessenberg.w.resize(maxdim);
    basis_scratch.reserve(kernels::Domain<T>::kDecoded ? maxdim * (maxdim + 1) : n * maxdim);
    spike.reserve(maxdim);
    blocks.reserve(maxdim);
  }
};

namespace detail {

[[nodiscard]] inline bool prefer_eig(Which which, double are, double aim, double bre,
                                     double bim) noexcept {
  switch (which) {
    case Which::largest_magnitude: return std::hypot(are, aim) > std::hypot(bre, bim);
    case Which::smallest_magnitude: return std::hypot(are, aim) < std::hypot(bre, bim);
    case Which::largest_real: return are > bre;
    case Which::smallest_real: return are < bre;
  }
  return false;
}

/// Where one restart cycle left the solve.
struct CycleOutcome {
  const char* failure = nullptr;  // set: the solve stops with this message
  std::size_t nconv = 0;          // converged leading columns of ws.t
};

/// One Krylov–Schur cycle up to the truncation: expands the size-k
/// decomposition (v, s) to m = v.cols() - 1 columns, takes its Rayleigh
/// matrix to real Schur form with the wanted Ritz values first (ws.t, the
/// rotation accumulated in ws.q) and counts the converged leading columns
/// from the spike (ws.spike).
template <typename T, class Op>
CycleOutcome expand_and_reduce(const Op& a, DenseMatrix<T>& v, DenseMatrix<T>& s, std::size_t k,
                               Rng& rng, const PartialSchurOptions& opts, double tol,
                               KrylovSchurWorkspace<T>& ws, std::size_t& matvecs) {
  CycleOutcome out;
  // ---- Expansion: k -> m ------------------------------------------------
  const std::size_t m = v.cols() - 1;
  for (std::size_t j = k; j < m; ++j) {
    const ExpandStatus es = arnoldi_step(a, v, s, j, rng, ws.arnoldi);
    ++matvecs;
    if (es == ExpandStatus::failed) {
      out.failure = "non-finite values during Arnoldi expansion";
      return out;
    }
  }
  const T beta = s(m, m - 1);

  // ---- Rayleigh matrix -> Hessenberg -> real Schur ----------------------
  // t/q are workspace matrices, fully overwritten here each restart.
  DenseMatrix<T>& t = ws.t;
  DenseMatrix<T>& q = ws.q;
  t.resize(m, m);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < m; ++i) t(i, j) = s(i, j);
  q.set_identity(m);
  if (!hessenberg_reduce(t, q, ws.hessenberg)) {
    out.failure = "non-finite values in Hessenberg reduction";
    return out;
  }
  const SchurStatus sst = hessenberg_to_schur(t, q, 40, opts.reflector_style);
  if (!sst.ok) {
    out.failure = "Schur iteration failed to converge";
    return out;
  }

  // ---- Reorder wanted Ritz values to the front --------------------------
  const Which which = opts.which;
  reorder_schur<T>(
      t, q,
      [which](const SchurBlock& x, const SchurBlock& y) {
        return prefer_eig(which, x.re, x.im, y.re, y.im);
      },
      ws.blocks);

  // ---- Spike and convergence --------------------------------------------
  std::vector<double>& spike = ws.spike;
  spike.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    spike[i] = NumTraits<T>::to_double(beta) * NumTraits<T>::to_double(q(m - 1, i));
  }
  schur_blocks(t, ws.blocks);
  for (const auto& blk : ws.blocks) {
    double res = 0.0;
    for (int c = 0; c < blk.size; ++c) {
      const double e = spike[blk.start + static_cast<std::size_t>(c)];
      res += e * e;
    }
    res = std::sqrt(res);
    const double mag = std::hypot(blk.re, blk.im);
    if (!(res <= tol * mag)) break;  // also stops on NaN residuals
    out.nconv += static_cast<std::size_t>(blk.size);
  }
  return out;
}

/// Thick restart after expand_and_reduce: V keeps its leading `keep` Schur
/// vectors (V := V Q[:, :keep]), the residual vector v_m becomes v_keep,
/// and s becomes the kept Schur block over the spike, with the couplings
/// of the first nconv (converged, locked) columns annihilated.
template <typename T>
void truncate(DenseMatrix<T>& v, DenseMatrix<T>& s, std::size_t keep, std::size_t nconv,
              KrylovSchurWorkspace<T>& ws) {
  const std::size_t n = v.rows();
  const std::size_t m = v.cols() - 1;
  kernels::update_basis(v, ws.q, m, keep, ws.basis_scratch);
  {
    T* dst = v.col(keep);
    const T* src = v.col(m);
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
  s.fill(T(0));
  for (std::size_t j = 0; j < keep; ++j)
    for (std::size_t i = 0; i < keep; ++i) s(i, j) = ws.t(i, j);
  for (std::size_t i = 0; i < keep; ++i) {
    const double val = (i < nconv) ? 0.0 : ws.spike[i];
    s(keep, i) = NumTraits<T>::from_double(val);
  }
}

/// The truncation size of a restart that keeps going: mindim plus half
/// the converged columns beyond it, below m, without splitting a 2x2 block.
template <typename T>
[[nodiscard]] std::size_t restart_keep(const DenseMatrix<T>& t, std::size_t mindim,
                                       std::size_t maxdim, std::size_t nconv) {
  const std::size_t m = maxdim;
  std::size_t keep = mindim + std::min(nconv, (maxdim - mindim) / 2);
  keep = std::min(keep, m - 1);
  if (keep < m && t(keep, keep - 1) != T(0)) ++keep;  // do not split a pair
  return std::min(keep, m - 1);
}

}  // namespace detail

template <typename T, class Op>
PartialSchurResult<T> partialschur(const Op& a, const PartialSchurOptions& opts = {}) {
  const std::size_t n = a.rows();
  PartialSchurResult<T> out;

  const std::size_t nev = opts.nev;
  if (nev == 0 || n < 2) {
    out.failure = "matrix too small";
    return out;
  }
  std::size_t mindim = opts.mindim != 0 ? opts.mindim : std::max<std::size_t>(10, nev);
  std::size_t maxdim = opts.maxdim != 0 ? opts.maxdim : std::max<std::size_t>(20, 2 * nev);
  // The decomposition keeps maxdim+1 basis vectors; cap at n-1 so the
  // residual direction always exists (full-space runs deflate via beta=0).
  maxdim = std::min(maxdim, n - 1);
  mindim = std::min(mindim, maxdim >= 2 ? maxdim - 2 : 1);
  mindim = std::max<std::size_t>(mindim, 1);
  if (nev > maxdim) {
    out.failure = "nev exceeds subspace dimension";
    return out;
  }
  const double tol = opts.tolerance > 0 ? opts.tolerance : NumTraits<T>::default_tolerance();

  Rng rng(opts.seed);

  DenseMatrix<T> v(n, maxdim + 1);
  DenseMatrix<T> s(maxdim + 1, maxdim);

  // Start vector (unit, shared across formats when provided).
  {
    std::vector<double> v0;
    if (opts.start_vector != nullptr && opts.start_vector->size() == n) {
      v0 = *opts.start_vector;
    } else {
      v0 = rng.unit_vector(n);
    }
    for (std::size_t i = 0; i < n; ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
    // Normalize in T (conversion perturbs the double-unit norm).
    const T nrm = kernels::nrm2(n, v.col(0));
    if (!is_number(nrm) || NumTraits<T>::to_double(nrm) == 0.0) {
      out.failure = "start vector collapsed in format";
      return out;
    }
    const T inv = T(1) / nrm;
    kernels::scal(n, inv, v.col(0));
  }

  KrylovSchurWorkspace<T> ws;
  ws.reserve(n, maxdim);

  std::size_t k = 0;  // active decomposition size
  for (int restart = 0; restart <= opts.max_restarts; ++restart) {
    out.restarts = restart;
    const detail::CycleOutcome cyc =
        detail::expand_and_reduce(a, v, s, k, rng, opts, tol, ws, out.matvecs);
    if (cyc.failure != nullptr) {
      out.failure = cyc.failure;
      return out;
    }
    const std::size_t nconv = cyc.nconv;
    out.nconverged = std::min(nconv, nev);

    const std::size_t m = maxdim;
    const DenseMatrix<T>& t = ws.t;
    const bool done = nconv >= nev || restart == opts.max_restarts;
    if (done) {
      // Keep nev columns, extended by one if that would split a 2x2 block.
      std::size_t keep = std::min(nev, m);
      if (keep < m && t(keep, keep - 1) != T(0)) ++keep;
      kernels::update_basis(v, ws.q, m, keep, ws.basis_scratch);
      out.q = v.top_left(n, keep);
      out.r = t.top_left(keep, keep);
      std::vector<T> re, im;
      schur_eigenvalues(out.r, re, im);
      out.eig_re.resize(keep);
      out.eig_im.resize(keep);
      for (std::size_t i = 0; i < keep; ++i) {
        out.eig_re[i] = NumTraits<T>::to_double(re[i]);
        out.eig_im[i] = NumTraits<T>::to_double(im[i]);
      }
      out.converged = nconv >= nev;
      if (!out.converged) out.failure = "no convergence within restart budget";
      return out;
    }

    // ---- Truncate (thick restart) ------------------------------------------
    k = detail::restart_keep(t, mindim, maxdim, nconv);
    detail::truncate(v, s, k, nconv, ws);
  }
  out.failure = "restart loop left unexpectedly";
  return out;
}

}  // namespace mfla
