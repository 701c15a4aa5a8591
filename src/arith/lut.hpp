// Lookup tables behind the arithmetic of the ≤16-bit formats.
//
// For narrow formats the whole operation space is small enough to
// precompute, so the scalar types themselves read tables instead of
// running their exact engines:
//
//  * 8-bit formats (OFP8 E4M3/E5M2, posit8, takum8) — Lut8<T>: full
//    256×256 result tables for +, × and ÷ (64 KiB each), a 256-entry √
//    table and a 256-entry double decode table. One load replaces a
//    complete emulated operation; a − b reads the add table with b negated.
//  * 16-bit formats (float16, bfloat16, posit16, takum16) — Dec16<T>: a
//    65536-entry double decode table behind to_double(), and for tapered
//    formats a 65536-entry Unpacked table behind unpack(), the decode step
//    of every exact-engine operation. Encoding stays the exact, correctly
//    rounded closed form.
//
// Every entry is produced by the type's exact engine under its explicit
// name (add_exact, to_double_exact, unpack_exact, ...), never by the
// table-backed operators, so building a table cannot recurse into itself
// and the fast paths are bit-identical by construction;
// tests/test_kernel_accel.cpp checks every entry against the exact engine.
//
// Each table is a function-local static: built on first use, one format at
// a time, thread-safe, and shared by every thread. Its storage lives in
// the object itself, so a read is the static-initialization guard check
// plus one indexed load. Building with MFLA_ENABLE_LUT=0 (CMake option of
// the same name) compiles the tables out and leaves the exact engines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#ifndef MFLA_ENABLE_LUT
#define MFLA_ENABLE_LUT 1
#endif

namespace mfla {

struct Unpacked;  // arith/tapered.hpp

/// Do the arithmetic operators of a `bits`-wide format read Lut8 / Dec16?
[[nodiscard]] constexpr bool lut8_width(int bits) noexcept { return MFLA_ENABLE_LUT && bits == 8; }
[[nodiscard]] constexpr bool dec16_width(int bits) noexcept {
  return MFLA_ENABLE_LUT && bits == 16;
}

/// Full operation tables for an 8-bit format.
template <typename T>
class Lut8 {
 public:
  using Storage = std::uint8_t;

  [[nodiscard]] static const Lut8& instance() noexcept {
    static const Lut8 lut;
    return lut;
  }

  [[nodiscard]] T add(T a, T b) const noexcept { return T::from_bits(add_[index(a, b)]); }
  [[nodiscard]] T mul(T a, T b) const noexcept { return T::from_bits(mul_[index(a, b)]); }
  [[nodiscard]] T div(T a, T b) const noexcept { return T::from_bits(div_[index(a, b)]); }
  [[nodiscard]] T sqrt(T a) const noexcept { return T::from_bits(sqrt_[a.bits()]); }
  [[nodiscard]] double decode(Storage bits) const noexcept { return dec_[bits]; }

  // Bit-domain surface for precomputed-offset kernels (kernels/spmv.hpp):
  // an 8-bit SpMV can hoist `bits(a_k) << 8` out of the inner loop as a
  // per-nonzero row offset, turning each multiply into mul_at(offset | x).
  [[nodiscard]] Storage add_bits(Storage a, Storage b) const noexcept {
    return add_[(std::size_t{a} << 8) | b];
  }
  [[nodiscard]] Storage mul_at(std::size_t row_offset_or_bits) const noexcept {
    return mul_[row_offset_or_bits];
  }

 private:
  Lut8() noexcept {
    for (unsigned a = 0; a < 256; ++a) {
      const T ta = T::from_bits(static_cast<Storage>(a));
      dec_[a] = ta.to_double_exact();
      sqrt_[a] = T::sqrt_exact(ta).bits();
      for (unsigned b = 0; b < 256; ++b) {
        const T tb = T::from_bits(static_cast<Storage>(b));
        add_[(a << 8) | b] = T::add_exact(ta, tb).bits();
        mul_[(a << 8) | b] = T::mul_exact(ta, tb).bits();
        div_[(a << 8) | b] = T::div_exact(ta, tb).bits();
      }
    }
  }

  [[nodiscard]] static std::size_t index(T a, T b) noexcept {
    return (std::size_t{a.bits()} << 8) | b.bits();
  }

  std::array<double, 256> dec_;
  std::array<Storage, 65536> add_, mul_, div_;
  std::array<Storage, 256> sqrt_;
};

/// Decode tables for a 16-bit format: the double of every encoding and, for
/// tapered formats, its Unpacked (sign, exponent, significand).
template <typename T>
class Dec16 {
  static constexpr bool kTapered = requires(const T& x) { x.unpack_exact(); };
  struct NoUnpacked {};

 public:
  using Storage = std::uint16_t;

  [[nodiscard]] static const Dec16& instance() noexcept {
    static const Dec16 lut;
    return lut;
  }

  [[nodiscard]] double decode(Storage bits) const noexcept { return dec_[bits]; }
  [[nodiscard]] const Unpacked& unpacked(Storage bits) const noexcept
    requires kTapered
  {
    return unp_[bits];
  }

 private:
  Dec16() noexcept {
    for (std::uint32_t b = 0; b < 65536; ++b) {
      const T x = T::from_bits(static_cast<Storage>(b));
      dec_[b] = x.to_double_exact();
      if constexpr (kTapered) unp_[b] = x.unpack_exact();
    }
  }

  std::array<double, 65536> dec_;
  [[no_unique_address]] std::conditional_t<kTapered, std::array<Unpacked, 65536>, NoUnpacked>
      unp_;
};

}  // namespace mfla
