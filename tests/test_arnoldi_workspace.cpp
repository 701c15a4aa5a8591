// Allocation-free hot-loop tests: a global operator-new hook counts heap
// allocations and asserts the steady-state Arnoldi inner loop and a whole
// Krylov–Schur restart cycle perform none, and golden digests pin partialschur's results bit-for-bit to the
// pre-workspace-refactor implementation across all <=16-bit formats and to
// the operator-only solver for the 32- and 64-bit posits and takums.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "arith/exact.hpp"
#include "core/krylov_schur.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

// ---------------------------------------------------------------------------
// Global operator-new hook. Replacing these in the test binary intercepts
// every heap allocation of the process (including the library's), which is
// exactly what we want: the steady-state Arnoldi step must do none.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mfla {
namespace {

CsrMatrix<double> workspace_matrix() {
  Rng gr(0x60a1);
  return CsrMatrix<double>::from_coo(graph_laplacian_pipeline(erdos_renyi(48, 0.18, gr)));
}

// libm-free deterministic start vector: splitmix words -> [-1, 1), then
// exact normalization (sqrt and division are correctly rounded, so the
// resulting bits are identical on every IEEE-conforming platform).
std::vector<double> golden_start(std::size_t n) {
  SplitMix64 sm(0x5eedf00dull);
  std::vector<double> v(n);
  double nrm2 = 0.0;
  for (auto& x : v) {
    x = static_cast<double>(sm.next() >> 11) * 0x1.0p-52 - 1.0;
    nrm2 += x * x;
  }
  const double inv = 1.0 / mfla::sqrt(nrm2);
  for (auto& x : v) x *= inv;
  return v;
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations per arnoldi_step
// ---------------------------------------------------------------------------

template <typename T>
void expect_allocation_free_steps() {
  const CsrMatrix<double> ad = workspace_matrix();
  const CsrMatrix<T> a = ad.convert<T>();
  const std::size_t n = a.rows();
  const std::size_t maxdim = 16;

  DenseMatrix<T> v(n, maxdim + 1);
  DenseMatrix<T> s(maxdim + 1, maxdim);
  ArnoldiWorkspace<T> ws;
  ws.reserve(n, maxdim);
  Rng rng(0x5157);

  const std::vector<double> v0 = golden_start(n);
  auto load_start = [&] {
    for (std::size_t i = 0; i < n; ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
    const T nrm = kernels::nrm2(n, v.col(0));
    kernels::scal(n, T(1) / nrm, v.col(0));
  };

  // Warm-up expansion: faults in the lazily built LUT tables and any other
  // one-time setup, and serves as the steady state the assertion targets.
  load_start();
  s.fill(T(0));
  for (std::size_t j = 0; j < maxdim; ++j)
    ASSERT_NE(arnoldi_step(a, v, s, j, rng, ws), ExpandStatus::failed);

  // Steady state: a full second expansion must not allocate at all.
  load_start();
  s.fill(T(0));
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t j = 0; j < maxdim; ++j)
    ASSERT_NE(arnoldi_step(a, v, s, j, rng, ws), ExpandStatus::failed);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "arnoldi_step allocated on its steady-state path";
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeDouble) {
  expect_allocation_free_steps<double>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeFloat16) {
  expect_allocation_free_steps<Float16>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeE4M3) {
  expect_allocation_free_steps<OFP8E4M3>();
}

TEST(ArnoldiWorkspace, StepsAreAllocationFreeTakum16) {
  expect_allocation_free_steps<Takum16>();
}

// The 32-bit posit runs the decoded domain: orthogonalization keeps w
// decoded in the workspace.
TEST(ArnoldiWorkspace, StepsAreAllocationFreePosit32) {
  expect_allocation_free_steps<Posit32>();
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations per restart cycle
// ---------------------------------------------------------------------------

/// A sparse non-symmetric matrix (random entries, about six per row plus
/// the diagonal): its Rayleigh matrices have complex Ritz pairs, so the
/// reordering swaps 2x2 Schur blocks.
CsrMatrix<double> nonsymmetric_matrix() {
  Rng rng(0x2b2b);
  const std::uint32_t n = 48;
  CooMatrix coo(n, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0 + rng.normal());
    for (int e = 0; e < 6; ++e)
      coo.add(i, static_cast<std::uint32_t>(rng.uniform_index(n)), rng.normal());
  }
  return CsrMatrix<double>::from_coo(coo);
}

/// One partialschur restart cycle after a warm-up cycle: expansion,
/// Hessenberg re-reduction, Francis QR, reordering, convergence test and
/// thick restart, through the same detail:: steps partialschur runs. The
/// measured cycle runs on a thread of its own, so scratch kept in
/// thread_local storage (sized on each thread's first use) counts too.
template <typename T>
void expect_allocation_free_cycle(const CsrMatrix<double>& ad, bool expect_pairs = false) {
  const CsrMatrix<T> a = ad.convert<T>();
  const std::size_t n = a.rows();
  const std::size_t mindim = 10, maxdim = 20;
  PartialSchurOptions opts;
  opts.nev = 6;
  const double tol = NumTraits<T>::default_tolerance();

  DenseMatrix<T> v(n, maxdim + 1);
  DenseMatrix<T> s(maxdim + 1, maxdim);
  const std::vector<double> v0 = golden_start(n);
  for (std::size_t i = 0; i < n; ++i) v(i, 0) = NumTraits<T>::from_double(v0[i]);
  kernels::scal(n, T(1) / kernels::nrm2(n, v.col(0)), v.col(0));

  KrylovSchurWorkspace<T> ws;
  ws.reserve(n, maxdim);
  Rng rng(0x5157);
  std::size_t k = 0, matvecs = 0;
  const auto cycle = [&] {
    const detail::CycleOutcome c =
        detail::expand_and_reduce(a, v, s, k, rng, opts, tol, ws, matvecs);
    if (c.failure != nullptr) return false;
    k = detail::restart_keep(ws.t, mindim, maxdim, c.nconv);
    detail::truncate(v, s, k, c.nconv, ws);
    return true;
  };
  ASSERT_TRUE(cycle());  // warm-up: the first expansion, one-time table setup

  bool ok = false;
  std::uint64_t allocations = 0;
  std::thread([&] {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    ok = cycle();
    allocations = g_alloc_count.load(std::memory_order_relaxed) - before;
  }).join();
  ASSERT_TRUE(ok);
  EXPECT_GT(matvecs, maxdim) << "the measured cycle should expand the basis again";
  EXPECT_EQ(allocations, 0u) << "a steady-state restart cycle allocated";
  if (expect_pairs) {
    EXPECT_TRUE(std::any_of(ws.blocks.begin(), ws.blocks.end(),
                            [](const SchurBlock& b) { return b.size == 2; }))
        << "the Schur form should hold 2x2 blocks";
  }
}

TEST(ArnoldiWorkspace, RestartCycleIsAllocationFreeDouble) {
  expect_allocation_free_cycle<double>(workspace_matrix());
}

TEST(ArnoldiWorkspace, RestartCycleIsAllocationFreeFloat16) {
  expect_allocation_free_cycle<Float16>(workspace_matrix());
}

TEST(ArnoldiWorkspace, RestartCycleIsAllocationFreePosit32) {
  expect_allocation_free_cycle<Posit32>(workspace_matrix());
}

TEST(ArnoldiWorkspace, RestartCycleIsAllocationFreeTakum64) {
  expect_allocation_free_cycle<Takum64>(workspace_matrix());
}

// Complex Ritz pairs: the reordering's direct 2x2 block swaps run too.
TEST(ArnoldiWorkspace, RestartCycleIsAllocationFreeNonsymmetric) {
  expect_allocation_free_cycle<double>(nonsymmetric_matrix(), true);
  expect_allocation_free_cycle<Posit32>(nonsymmetric_matrix(), true);
}

// The operator-new hook itself must be live, or the zero-count assertions
// above would pass vacuously.
TEST(ArnoldiWorkspace, AllocationHookIsLive) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(128);
  delete p;
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------------
// Bit-identity against the pre-refactor solver
// ---------------------------------------------------------------------------

/// Digest of everything partialschur produces, in double bit patterns.
template <typename T>
Hash128 partialschur_digest(const CsrMatrix<double>& ad, const std::vector<double>& start) {
  const CsrMatrix<T> a = ad.convert<T>();
  PartialSchurOptions opts;
  opts.nev = 6;
  opts.which = Which::largest_magnitude;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = 60;
  opts.start_vector = &start;
  opts.seed = 0xbeef;
  const auto r = partialschur<T>(a, opts);
  Hasher h;
  h.u64(r.converged ? 1 : 0).u64(r.nconverged).u64(static_cast<std::uint64_t>(r.restarts));
  h.u64(r.matvecs);
  h.span(r.eig_re.data(), r.eig_re.size());
  h.span(r.eig_im.data(), r.eig_im.size());
  for (std::size_t j = 0; j < r.q.cols(); ++j)
    for (std::size_t i = 0; i < r.q.rows(); ++i) h.f64(NumTraits<T>::to_double(r.q(i, j)));
  for (std::size_t j = 0; j < r.r.cols(); ++j)
    for (std::size_t i = 0; i < r.r.rows(); ++i) h.f64(NumTraits<T>::to_double(r.r(i, j)));
  return h.finish();
}

TEST(PartialSchurBitIdentity, MatchesPreRefactorGoldensForNarrowFormats) {
  // Golden digests captured from the pre-workspace-refactor solver (PR 3
  // state) on this exact matrix (erdos_renyi(48, 0.18) laplacian, n=48,
  // nnz=440) and start vector. The solve path is libm-free end to end
  // (emulated-format arithmetic; double appears only in exactly rounded
  // ops), so these bits are platform-independent for IEEE-conforming
  // doubles. Any divergence means the workspace refactor (or a later
  // change) altered the arithmetic, not just the allocations.
  const std::map<std::string, Hash128> golden = {
      {"e4m3", {0xa178776472d802d2ull, 0xf99c4f9ed025570bull}},
      {"e5m2", {0x1c4b0558d0a270a7ull, 0x16a6a59116bad84dull}},
      {"p8", {0xe0533f1a6d8f96d7ull, 0xab54545ea95cb493ull}},
      {"t8", {0xeb5aa60d0fe59a9cull, 0xea094799c8846e27ull}},
      {"f16", {0x81bf7d81a26f25edull, 0xe8d0e39f0fa88e4bull}},
      {"bf16", {0xd79508f1a1255361ull, 0x749e458b99697d45ull}},
      {"p16", {0x34bdb8094c1fb666ull, 0xa8a54a99e3dd41b3ull}},
      {"t16", {0x78ea1da36a9e7c3dull, 0x034aeee182ddf984ull}},
  };
  const CsrMatrix<double> a = workspace_matrix();
  ASSERT_EQ(a.rows(), 48u);
  ASSERT_EQ(a.nnz(), 440u);
  const std::vector<double> start = golden_start(a.rows());

  const auto check = [&](const char* key, const Hash128& digest) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(digest, it->second) << "partialschur<" << key << "> diverged from the "
                                  << "pre-refactor bits";
  };
  check("e4m3", partialschur_digest<OFP8E4M3>(a, start));
  check("e5m2", partialschur_digest<OFP8E5M2>(a, start));
  check("p8", partialschur_digest<Posit8>(a, start));
  check("t8", partialschur_digest<Takum8>(a, start));
  check("f16", partialschur_digest<Float16>(a, start));
  check("bf16", partialschur_digest<BFloat16>(a, start));
  check("p16", partialschur_digest<Posit16>(a, start));
  check("t16", partialschur_digest<Takum16>(a, start));
}

TEST(PartialSchurBitIdentity, MatchesGoldensForWideFormats) {
  // Golden digests captured before the decoded-domain kernels and bulge
  // chase (arith/tapered.hpp, kernels/vector_ops.hpp, dense/schur.hpp) on
  // the same matrix and start vector as above. Decoding operands once and
  // skipping intermediate encodes must not change a bit of the solve.
  const std::map<std::string, Hash128> golden = {
      {"p32", {0x4700d8f3e2eec4c6ull, 0x93262b74464ad46bull}},
      {"t32", {0xe6468bc304f7b755ull, 0x86c52620160bd54cull}},
      {"p64", {0x54fa3294ed648873ull, 0xaf8ce13fb0445d26ull}},
      {"t64", {0xe433b437fc831194ull, 0xac09946aaca6a84eull}},
      {"p32es1", {0x7260f20a6cd3c63aull, 0xb8717a3119b17f4bull}},
  };
  const CsrMatrix<double> a = workspace_matrix();
  const std::vector<double> start = golden_start(a.rows());
  const auto check = [&](const char* key, const Hash128& digest) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(digest, it->second) << "partialschur<" << key << "> diverged from the golden bits";
  };
  check("p32", partialschur_digest<Posit32>(a, start));
  check("t32", partialschur_digest<Takum32>(a, start));
  check("p64", partialschur_digest<Posit64>(a, start));
  check("t64", partialschur_digest<Takum64>(a, start));
  using Posit32Es1 = Posit<32, 1>;
  check("p32es1", partialschur_digest<Posit32Es1>(a, start));
}

// The >=16-bit posits and takums run the kernels and the bulge chase in the
// decoded domain; Exact<T> runs the same solve on the plain operators.
TEST(PartialSchurBitIdentity, DecodedDomainAgreesWithOperators) {
  const CsrMatrix<double> a = workspace_matrix();
  const std::vector<double> start = golden_start(a.rows());
  EXPECT_EQ(partialschur_digest<Posit32>(a, start), partialschur_digest<Exact<Posit32>>(a, start));
  EXPECT_EQ(partialschur_digest<Takum32>(a, start), partialschur_digest<Exact<Takum32>>(a, start));
  EXPECT_EQ(partialschur_digest<Posit64>(a, start), partialschur_digest<Exact<Posit64>>(a, start));
  EXPECT_EQ(partialschur_digest<Takum64>(a, start), partialschur_digest<Exact<Takum64>>(a, start));
  using Posit64Es0 = Posit<64, 0>;  // the 128-bit add core
  EXPECT_EQ(partialschur_digest<Posit64Es0>(a, start),
            partialschur_digest<Exact<Posit64Es0>>(a, start));
}

// The table-backed arithmetic (including the precomputed-offset SpMV the
// 8-bit formats take inside CsrMatrix::matvec) must not change a single
// bit: the same solve on Exact<T>, i.e. on the exact engines with every
// table out of the path, must produce the same digest.
TEST(PartialSchurBitIdentity, LutOnAndOffAgree) {
  const CsrMatrix<double> a = workspace_matrix();
  const std::vector<double> start = golden_start(a.rows());

  EXPECT_EQ(partialschur_digest<OFP8E4M3>(a, start),
            partialschur_digest<Exact<OFP8E4M3>>(a, start));
  EXPECT_EQ(partialschur_digest<OFP8E5M2>(a, start),
            partialschur_digest<Exact<OFP8E5M2>>(a, start));
  EXPECT_EQ(partialschur_digest<Posit8>(a, start), partialschur_digest<Exact<Posit8>>(a, start));
  EXPECT_EQ(partialschur_digest<Takum8>(a, start), partialschur_digest<Exact<Takum8>>(a, start));
  EXPECT_EQ(partialschur_digest<Float16>(a, start),
            partialschur_digest<Exact<Float16>>(a, start));
  EXPECT_EQ(partialschur_digest<BFloat16>(a, start),
            partialschur_digest<Exact<BFloat16>>(a, start));
  EXPECT_EQ(partialschur_digest<Posit16>(a, start),
            partialschur_digest<Exact<Posit16>>(a, start));
  EXPECT_EQ(partialschur_digest<Takum16>(a, start),
            partialschur_digest<Exact<Takum16>>(a, start));
}

// ---------------------------------------------------------------------------
// Planned SpMV: bit-identity and plan lifecycle
// ---------------------------------------------------------------------------

template <typename T>
void expect_planned_spmv_identity() {
  const CsrMatrix<double> ad = workspace_matrix();
  const CsrMatrix<T> a = ad.convert<T>();  // plan built by convert()
  const std::size_t n = a.rows();
  const CsrMatrix<Exact<T>> ae = ad.convert<Exact<T>>();
  std::vector<T> x(n), y_planned(n), y_generic(n);
  std::vector<Exact<T>> xe(n), y_exact(n);
  SplitMix64 sm(0xabc);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = NumTraits<T>::from_double(static_cast<double>(sm.next() >> 11) * 0x1.0p-52 - 1.0);
  for (std::size_t i = 0; i < n; ++i) xe[i] = Exact<T>::of(x[i]);

  a.matvec(x.data(), y_planned.data());  // planned path in a table build
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                y_generic.data());
  ae.matvec(xe.data(), y_exact.data());  // the same loop on the exact engines
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(NumTraits<T>::to_double(y_planned[i]), NumTraits<T>::to_double(y_generic[i]));
    EXPECT_EQ(NumTraits<T>::to_double(y_planned[i]), y_exact[i].to_double());
  }
}

TEST(PlannedSpmv, BitIdenticalToGenericAndReferenceE4M3) {
  expect_planned_spmv_identity<OFP8E4M3>();
}

TEST(PlannedSpmv, BitIdenticalToGenericAndReferencePosit8) {
  expect_planned_spmv_identity<Posit8>();
}

TEST(PlannedSpmv, MutatingValuesDropsThePlanButStaysCorrect) {
  const CsrMatrix<double> ad = workspace_matrix();
  CsrMatrix<OFP8E4M3> a = ad.convert<OFP8E4M3>();
  const std::size_t n = a.rows();

  // Mutate one value through the explicit mutator: the plan is dropped,
  // matvec falls back to the generic kernel and must reflect the new value.
  a.mutable_values()[0] = OFP8E4M3::from_double(0.5);
  std::vector<OFP8E4M3> x(n, OFP8E4M3::from_double(1.0)), y_after(n), y_generic(n);
  a.matvec(x.data(), y_after.data());
  kernels::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(), x.data(),
                y_generic.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(y_after[i].to_double(), y_generic[i].to_double());

  // rebuild_spmv_plan() restores the fast path with the current bits.
  a.rebuild_spmv_plan();
  std::vector<OFP8E4M3> y_rebuilt(n);
  a.matvec(x.data(), y_rebuilt.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(y_rebuilt[i].to_double(), y_generic[i].to_double());
}

}  // namespace
}  // namespace mfla
