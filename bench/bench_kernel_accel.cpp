// Exact-engine vs fast-path throughput per format and width: dot, axpy
// and sparse matvec for every table-backed format, dot and axpy for the
// 32- and 64-bit posits and takums, a dense-restart case
// (hessenberg_reduce + hessenberg_to_schur on a fixed 12x12 matrix) for
// posit8, takum8, E4M3, posit16 and the 32/64-bit posits and takums, and
// the restart's basis update (512 x 24 times 24 x 12) and one Gram–Schmidt
// orthogonalization (512 rows against 20 columns) for the 16/32/64-bit
// posits and takums.
//
// The exact series runs each kernel on Exact<T> (arith/exact.hpp), whose
// operators call T's exact engines by name (add_exact, mul_exact, ...);
// the fast series runs the same kernel on T itself: at 8 and 16 bits its
// operators read the tables of arith/lut.hpp, and from 16 bits up the
// posit/takum kernels and bulge chase keep operands decoded
// (arith/tapered.hpp). In an MFLA_ENABLE_LUT=0 build the 8-bit series and
// the float16/bfloat16 series both measure the exact engines.
//
// tools/bench_compare.py gates the exact/fast ratio of each kernel and
// format, which the host's speed cancels out of; the raw timings are
// informational.
#include <benchmark/benchmark.h>

#include <vector>

#include "arith/exact.hpp"
#include "core/arnoldi.hpp"
#include "dense/hessenberg.hpp"
#include "dense/schur.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfla;

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(NumTraits<T>::from_double(rng.normal()));
  return v;
}

template <typename T>
CsrMatrix<T> bench_matrix(std::size_t n) {
  Rng rng("bench_kernel_accel", n);
  const CooMatrix lap = graph_laplacian_pipeline(erdos_renyi(static_cast<std::uint32_t>(n),
                                                             8.0 / static_cast<double>(n), rng));
  return CsrMatrix<double>::from_coo(lap).convert<T>();
}

template <typename T>
void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 1);
  const auto y = random_vec<T>(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(kernels::dot(n, x.data(), y.data()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T>
void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 3);
  auto y = random_vec<T>(n, 4);
  // Alternate the sign of alpha so y stays near its start instead of
  // growing with the iteration count, which would change what the
  // formats' special cases cost from one run to the next.
  const T alpha[2] = {NumTraits<T>::from_double(0.37), NumTraits<T>::from_double(-0.37)};
  std::size_t flip = 0;
  for (auto _ : state) {
    kernels::axpy(n, alpha[flip ^= 1], x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T>
void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = bench_matrix<T>(n);
  const auto x = random_vec<T>(a.cols(), 5);
  std::vector<T> y(a.rows());
  for (auto _ : state) {
    // Through the matrix so the 8-bit offset plan is in play — that is
    // the path solvers run.
    a.matvec(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}

/// The dense restart's two big phases on a fixed non-symmetric matrix:
/// Householder reduction to Hessenberg form, then the Francis QR sweeps.
template <typename T>
void BM_Restart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng("bench_kernel_accel_restart", n);
  DenseMatrix<T> a0(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) a0(i, j) = NumTraits<T>::from_double(rng.normal());
  for (auto _ : state) {
    DenseMatrix<T> h = a0;
    DenseMatrix<T> q = DenseMatrix<T>::identity(n);
    benchmark::DoNotOptimize(hessenberg_reduce(h, q));
    benchmark::DoNotOptimize(hessenberg_to_schur(h, q).ok);
  }
}

/// V[:, :12] := V W for a 512 x 25 basis and a 24 x 24 W, as the thick
/// restart runs it (each iteration starts from the same V).
template <typename T>
void BM_UpdateBasis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 24, keep = 12;
  Rng rng("bench_kernel_accel_update_basis", n);
  DenseMatrix<T> v0(n, m + 1), w(m, m);
  for (std::size_t j = 0; j <= m; ++j)
    for (std::size_t i = 0; i < n; ++i) v0(i, j) = NumTraits<T>::from_double(rng.normal() * 0.05);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < m; ++i) w(i, j) = NumTraits<T>::from_double(rng.normal() * 0.2);
  DenseMatrix<T> v = v0;
  std::vector<typename kernels::Domain<T>::Value> scratch;
  for (auto _ : state) {
    v = v0;
    kernels::update_basis(v, w, m, keep, scratch);
    benchmark::DoNotOptimize(v.col(0));
    benchmark::ClobberMemory();
  }
}

/// One iterated-CGS orthogonalization of a fixed vector against 20 basis
/// columns of length 512, as an Arnoldi step runs it.
template <typename T>
void BM_Orthogonalize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 20;
  Rng rng("bench_kernel_accel_orthogonalize", n);
  DenseMatrix<T> v(n, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    const std::vector<double> u = rng.unit_vector(n);
    for (std::size_t i = 0; i < n; ++i) v(i, j) = NumTraits<T>::from_double(u[i]);
  }
  const std::vector<double> u = rng.unit_vector(n);
  std::vector<T> w0(n);
  for (std::size_t i = 0; i < n; ++i) w0[i] = NumTraits<T>::from_double(u[i]);
  ArnoldiWorkspace<T> ws;
  ws.reserve(n, cols);
  std::vector<T> h(cols + 1);
  for (auto _ : state) {
    ws.w = w0;
    benchmark::DoNotOptimize(detail::orthogonalize(v, cols, ws, h.data(), T(1)));
  }
}

#define MFLA_VECTOR_BENCH(T)                                                           \
  BENCHMARK_TEMPLATE(BM_Dot, Exact<T>)->Name("Dot/exact/" #T)->Arg(4096);              \
  BENCHMARK_TEMPLATE(BM_Dot, T)->Name("Dot/fast/" #T)->Arg(4096);                      \
  BENCHMARK_TEMPLATE(BM_Axpy, Exact<T>)->Name("Axpy/exact/" #T)->Arg(4096);            \
  BENCHMARK_TEMPLATE(BM_Axpy, T)->Name("Axpy/fast/" #T)->Arg(4096)

#define MFLA_ACCEL_BENCH(T)                                                            \
  MFLA_VECTOR_BENCH(T);                                                                \
  BENCHMARK_TEMPLATE(BM_SpMV, Exact<T>)->Name("SpMV/exact/" #T)->Arg(512);             \
  BENCHMARK_TEMPLATE(BM_SpMV, T)->Name("SpMV/fast/" #T)->Arg(512)

#define MFLA_BASIS_BENCH(T)                                                            \
  BENCHMARK_TEMPLATE(BM_UpdateBasis, Exact<T>)->Name("UpdateBasis/exact/" #T)->Arg(512); \
  BENCHMARK_TEMPLATE(BM_UpdateBasis, T)->Name("UpdateBasis/fast/" #T)->Arg(512);         \
  BENCHMARK_TEMPLATE(BM_Orthogonalize, Exact<T>)                                       \
      ->Name("Orthogonalize/exact/" #T)                                                \
      ->Arg(512);                                                                      \
  BENCHMARK_TEMPLATE(BM_Orthogonalize, T)->Name("Orthogonalize/fast/" #T)->Arg(512)

#define MFLA_RESTART_BENCH(T)                                                          \
  BENCHMARK_TEMPLATE(BM_Restart, Exact<T>)->Name("Restart/exact/" #T)->Arg(12);        \
  BENCHMARK_TEMPLATE(BM_Restart, T)->Name("Restart/fast/" #T)->Arg(12)

// The four 8-bit formats (full result tables).
MFLA_ACCEL_BENCH(OFP8E4M3);
MFLA_ACCEL_BENCH(OFP8E5M2);
MFLA_ACCEL_BENCH(Posit8);
MFLA_ACCEL_BENCH(Takum8);
// The four 16-bit formats (decode tables).
MFLA_ACCEL_BENCH(Float16);
MFLA_ACCEL_BENCH(BFloat16);
MFLA_ACCEL_BENCH(Posit16);
MFLA_ACCEL_BENCH(Takum16);
// The 32/64-bit posits and takums (decoded domain; SpMV runs the
// operators, so only the vector kernels are timed).
MFLA_VECTOR_BENCH(Posit32);
MFLA_VECTOR_BENCH(Takum32);
MFLA_VECTOR_BENCH(Posit64);
MFLA_VECTOR_BENCH(Takum64);
// The dense restart, which the kernel tier alone never reached.
MFLA_RESTART_BENCH(Posit8);
MFLA_RESTART_BENCH(Takum8);
MFLA_RESTART_BENCH(OFP8E4M3);
MFLA_RESTART_BENCH(Posit16);
MFLA_RESTART_BENCH(Posit32);
MFLA_RESTART_BENCH(Takum32);
MFLA_RESTART_BENCH(Posit64);
MFLA_RESTART_BENCH(Takum64);
// The restart's basis update and the expansion's Gram–Schmidt (blocked
// and fused in the decoded domain).
MFLA_BASIS_BENCH(Posit16);
MFLA_BASIS_BENCH(Takum16);
MFLA_BASIS_BENCH(Posit32);
MFLA_BASIS_BENCH(Takum32);
MFLA_BASIS_BENCH(Posit64);
MFLA_BASIS_BENCH(Takum64);

}  // namespace
