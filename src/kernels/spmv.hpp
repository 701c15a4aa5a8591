// Sparse matrix–vector product over CSR storage.
//
// The matvec accumulates in the working format T — this is the central
// kernel whose low-precision behavior the study measures. Like the dense
// kernels in vector_ops.hpp it is a plain loop over T; the 8-bit formats
// additionally have a planned variant that runs in the bit domain over
// their operation tables (arith/lut.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/accel.hpp"

namespace mfla {
namespace kernels {

// -- 8-bit precomputed-offset fast path -------------------------------------

/// Is the offset plan meaningful for T? (8-bit formats with LUT support.)
template <typename T>
[[nodiscard]] consteval bool spmv_plan_supported() noexcept {
#if MFLA_ENABLE_LUT
  return accel::accel_kind<T>() == accel::AccelKind::lut8;
#else
  return false;
#endif
}

/// Per-nonzero LUT row offsets for an 8-bit value array: offsets[k] is
/// bits(values[k]) << 8, i.e. the base index of that operand's row in the
/// 256x256 operation tables. Computed once per matrix (sparse/csr.hpp),
/// it removes the shift/or index arithmetic on the value operand from
/// every inner-loop multiply of every matvec.
template <typename T>
[[nodiscard]] std::vector<std::uint16_t> build_spmv_plan(const T* values, std::size_t nnz) {
  static_assert(spmv_plan_supported<T>());
  std::vector<std::uint16_t> offsets(nnz);
  using Codec = ScalarCodec<T>;
  for (std::size_t k = 0; k < nnz; ++k)
    offsets[k] = static_cast<std::uint16_t>(static_cast<std::uint16_t>(Codec::to_bits(values[k]))
                                            << 8);
  return offsets;
}

#if MFLA_ENABLE_LUT

/// y := A x with the precomputed offset plan; bit-identical to spmv (the
/// accumulation runs in the bit domain over the very tables T's operators
/// read, in the very same order).
template <typename T>
void spmv_planned(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                  const std::uint16_t* offsets, const T* x, T* y) noexcept {
  static_assert(spmv_plan_supported<T>());
  using Codec = ScalarCodec<T>;
  using Storage = typename Codec::Storage;
  const auto& lut = accel::Lut8<T>::instance();
  const Storage zero_bits = Codec::to_bits(T(0));
  for (std::size_t i = 0; i < rows; ++i) {
    Storage acc = zero_bits;
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const Storage prod =
          lut.mul_at(static_cast<std::size_t>(offsets[k]) |
                     static_cast<std::size_t>(Codec::to_bits(x[col_idx[k]])));
      acc = lut.add_bits(acc, prod);
    }
    y[i] = Codec::from_bits(acc);
  }
}

#endif  // MFLA_ENABLE_LUT

/// y := A x for CSR (row_ptr, col_idx, values), accumulated in T.
template <typename T>
void spmv(std::size_t rows, const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
          const T* values, const T* x, T* y) noexcept {
  for (std::size_t i = 0; i < rows; ++i) {
    T acc(0);
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
      acc = acc + values[k] * x[col_idx[k]];
    y[i] = acc;
  }
}

}  // namespace kernels
}  // namespace mfla
