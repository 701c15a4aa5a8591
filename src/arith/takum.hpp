// Takum arithmetic (linear takums, Hunhold 2024).
//
// An n-bit takum encodes, after the sign bit S:
//   D      — 1-bit direction (sign of the characteristic),
//   R      — 3-bit regime rho,
//   C      — characteristic field of rho bits (D=1) or 7-rho bits (D=0),
//   M      — the remaining mantissa bits,
// with the characteristic
//   c = 2^rho - 1 + C          for D = 1   (c in [0, 254])
//   c = -2^(8-rho) + 1 + C     for D = 0   (c in [-255, -1])
// and value = (1 + f) * 2^c for positive encodings; negative values are the
// two's complement of the positive pattern. The characteristic and mantissa
// fields are truncated by the total width (missing bits read as zero), so
// even takum8 spans roughly 2^±239.
//
// Rounding is defined on the encoding (round-to-nearest-even of the integer
// pattern) with saturation at the extremes, exactly like posits.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "arith/tapered.hpp"

namespace mfla {

template <int N>
struct TakumCodec {
  static_assert(N >= 8 && N <= 64, "takum widths below 8 bits are not defined");

  static constexpr int nbits = N;
  using Storage = detail::uint_for_bits<N>;
  // The encode prefix (direction, regime, characteristic) is at most 11
  // bits; takum64 needs a 128-bit word only for the rest bits below its
  // 64-bit cut.
  using Word = std::conditional_t<(N < 64), std::uint64_t, u128>;

  static constexpr int max_exponent = 255;  // |c| <= 255 by construction

  [[nodiscard]] static const char* name() noexcept {
    static const std::string s = "takum" + std::to_string(N);
    return s.c_str();
  }

  /// Fraction bits an encoding of characteristic e keeps: N - 1 payload
  /// bits less D, R (4 bits) and the characteristic field, whose width is
  /// floor(log2(e + 1)) for e >= 0 and floor(log2(-e)) for e < 0.
  /// Negative where the prefix itself is cut.
  [[nodiscard]] static constexpr int frac_bits(int e) noexcept {
    const int cbits = (e >= 0) ? detail::bitlen(static_cast<unsigned>(e) + 1) - 1
                               : detail::bitlen(static_cast<unsigned>(-e)) - 1;
    return N - 5 - cbits;
  }

  [[nodiscard]] static Unpacked decode_positive(std::uint64_t p) noexcept {
    const std::uint64_t x = p << (64 - N);
    const int d = static_cast<int>((x >> 62) & 1);
    const int rho = static_cast<int>((x >> 59) & 7);
    const int cbits = d ? rho : 7 - rho;
    const int avail = N - 5;
    const int ctaken = (cbits < avail) ? cbits : avail;
    const std::uint64_t rest = x << 5;
    const std::uint64_t c_explicit = (ctaken > 0) ? rest >> (64 - ctaken) : 0;
    const auto c_field = static_cast<int>(c_explicit << (cbits - ctaken));
    const int c = d ? ((1 << rho) - 1 + c_field) : (-(1 << (8 - rho)) + 1 + c_field);
    const std::uint64_t rest2 = (ctaken < 64) ? rest << ctaken : 0;
    Unpacked u;
    u.e = c;
    u.m = (1ull << 63) | (rest2 >> 1);
    return u;
  }

  [[nodiscard]] static Storage encode_positive(int e, std::uint64_t m, bool guard,
                                               bool sticky) noexcept {
    constexpr std::uint64_t maxpos = (std::uint64_t{1} << (N - 1)) - 1;
    // The characteristic is limited to [-255, 254]; saturate outside it.
    // (Width-induced truncation saturates via round_payload's clamps.)
    if (e >= max_exponent) return static_cast<Storage>(maxpos);
    if (e < -max_exponent) return Storage{1};
    int d, rho, cbits, c_field;
    if (e >= 0) {
      d = 1;
      rho = detail::bitlen(static_cast<unsigned>(e) + 1) - 1;
      cbits = rho;
      c_field = e - ((1 << rho) - 1);
    } else {
      d = 0;
      const int t = -e;
      const int fl = detail::bitlen(static_cast<unsigned>(t)) - 1;
      rho = 7 - fl;
      cbits = 7 - rho;
      c_field = e + (1 << (8 - rho)) - 1;
    }
    const auto prefix = static_cast<Word>((((d << 3) | rho) << cbits) | c_field);
    return detail::encode_stream<N, Word, Storage>(prefix, 4 + cbits, m, guard, sticky);
  }
};

template <int N>
using Takum = TaperedFloat<TakumCodec<N>>;

using Takum8 = Takum<8>;
using Takum16 = Takum<16>;
using Takum32 = Takum<32>;
using Takum64 = Takum<64>;

}  // namespace mfla
