// Exact-engine vs LUT throughput of the kernel layer (kernels/accel.hpp)
// per format and width: dot, axpy and sparse matvec for every accelerated
// format. The acceptance bar is a >= 3x speedup of the LUT paths over the
// exact engines on all three kernels for the four 8-bit formats.
//
// Exact timings use kernels::ref:: (always the exact engines); lut timings
// force the table switch on. In an MFLA_ENABLE_LUT=0 build all series are
// exact measurements.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "kernels/accel.hpp"
#include "kernels/spmv.hpp"
#include "kernels/vector_ops.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfla;

enum class Mode { exact, lut };

/// Force the runtime LUT switch for one benchmark run.
class ModeGuard {
 public:
  explicit ModeGuard(Mode m) : lut_prev_(kernels::set_lut_enabled(m == Mode::lut)) {}
  ~ModeGuard() { kernels::set_lut_enabled(lut_prev_); }

 private:
  bool lut_prev_;
};

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

template <typename T, Mode kMode>
void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 1);
  const auto y = random_vec<T>(n, 2);
  const ModeGuard guard(kMode);
  for (auto _ : state) {
    if constexpr (kMode == Mode::exact) {
      benchmark::DoNotOptimize(kernels::ref::dot(n, x.data(), y.data()));
    } else {
      benchmark::DoNotOptimize(kernels::dot(n, x.data(), y.data()));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T, Mode kMode>
void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec<T>(n, 3);
  auto y = random_vec<T>(n, 4);
  const T alpha = NumTraits<T>::from_double(0.37);
  const ModeGuard guard(kMode);
  for (auto _ : state) {
    if constexpr (kMode == Mode::exact) {
      kernels::ref::axpy(n, alpha, x.data(), y.data());
    } else {
      kernels::axpy(n, alpha, x.data(), y.data());
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <typename T, Mode kMode>
void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = bench_matrix<T>(n);
  const auto x = random_vec<T>(a.cols(), 5);
  std::vector<T> y(a.rows());
  const ModeGuard guard(kMode);
  for (auto _ : state) {
    if constexpr (kMode == Mode::exact) {
      kernels::ref::spmv(a.rows(), a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                         x.data(), y.data());
    } else {
      // Through the matrix so the offset plan is in play — that is the
      // path solvers run.
      a.matvec(x.data(), y.data());
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}

#define MFLA_ACCEL_BENCH(T)                                                             \
  BENCHMARK_TEMPLATE(BM_Dot, T, Mode::exact)->Name("Dot/exact/" #T)->Arg(4096);         \
  BENCHMARK_TEMPLATE(BM_Dot, T, Mode::lut)->Name("Dot/lut/" #T)->Arg(4096);             \
  BENCHMARK_TEMPLATE(BM_Axpy, T, Mode::exact)->Name("Axpy/exact/" #T)->Arg(4096);       \
  BENCHMARK_TEMPLATE(BM_Axpy, T, Mode::lut)->Name("Axpy/lut/" #T)->Arg(4096);           \
  BENCHMARK_TEMPLATE(BM_SpMV, T, Mode::exact)->Name("SpMV/exact/" #T)->Arg(512);        \
  BENCHMARK_TEMPLATE(BM_SpMV, T, Mode::lut)->Name("SpMV/lut/" #T)->Arg(512)

// The four 8-bit formats (acceptance: >= 3x lut-over-exact on
// dot/axpy/spmv for all).
MFLA_ACCEL_BENCH(OFP8E4M3);
MFLA_ACCEL_BENCH(OFP8E5M2);
MFLA_ACCEL_BENCH(Posit8);
MFLA_ACCEL_BENCH(Takum8);
// The four 16-bit formats (decode-table paths).
MFLA_ACCEL_BENCH(Float16);
MFLA_ACCEL_BENCH(BFloat16);
MFLA_ACCEL_BENCH(Posit16);
MFLA_ACCEL_BENCH(Takum16);

}  // namespace
