// Exact<T>: format T with every operation routed to its exact engine.
//
// The ≤16-bit formats' operators read lookup tables (arith/lut.hpp).
// Exact<T> wraps T and sends + − × ÷ √ and the decode to double through the
// engine's explicit names instead (add_exact, ..., to_double_exact); T's
// negation, abs, comparisons and encode never touch a table. Any templated
// algorithm — a kernel, the dense restart, a whole partialschur solve — can
// so run the same loop on the exact engines in the same binary: the tests
// compare the two instantiations bit for bit, and bench_kernel_accel times
// them against each other.
#pragma once

#include <string>

#include "arith/traits.hpp"

namespace mfla {

/// Does T have an exact engine reachable by name?
template <typename T>
concept HasExactEngine = requires(T a) {
  T::add_exact(a, a);
  a.to_double_exact();
};

template <HasExactEngine T>
class Exact {
 public:
  constexpr Exact() noexcept = default;
  Exact(double d) noexcept : v_(T::from_double(d)) {}
  Exact(int i) noexcept : Exact(static_cast<double>(i)) {}

  [[nodiscard]] static constexpr Exact of(T v) noexcept {
    Exact r;
    r.v_ = v;
    return r;
  }
  [[nodiscard]] constexpr T value() const noexcept { return v_; }
  [[nodiscard]] double to_double() const noexcept { return v_.to_double_exact(); }
  explicit operator double() const noexcept { return to_double(); }

  friend Exact operator+(Exact a, Exact b) noexcept { return of(T::add_exact(a.v_, b.v_)); }
  friend Exact operator-(Exact a, Exact b) noexcept { return of(T::sub_exact(a.v_, b.v_)); }
  friend Exact operator*(Exact a, Exact b) noexcept { return of(T::mul_exact(a.v_, b.v_)); }
  friend Exact operator/(Exact a, Exact b) noexcept { return of(T::div_exact(a.v_, b.v_)); }
  friend Exact operator-(Exact a) noexcept { return of(-a.v_); }
  Exact& operator+=(Exact o) noexcept { return *this = *this + o; }
  Exact& operator-=(Exact o) noexcept { return *this = *this - o; }
  Exact& operator*=(Exact o) noexcept { return *this = *this * o; }
  Exact& operator/=(Exact o) noexcept { return *this = *this / o; }

  [[nodiscard]] friend Exact sqrt(Exact a) noexcept { return of(T::sqrt_exact(a.v_)); }
  [[nodiscard]] friend Exact abs(Exact a) noexcept { return of(abs(a.v_)); }
  [[nodiscard]] friend bool is_number(Exact a) noexcept { return is_number(a.v_); }

  friend bool operator==(Exact a, Exact b) noexcept { return a.v_ == b.v_; }
  friend bool operator!=(Exact a, Exact b) noexcept { return a.v_ != b.v_; }
  friend bool operator<(Exact a, Exact b) noexcept { return a.v_ < b.v_; }
  friend bool operator>(Exact a, Exact b) noexcept { return a.v_ > b.v_; }
  friend bool operator<=(Exact a, Exact b) noexcept { return a.v_ <= b.v_; }
  friend bool operator>=(Exact a, Exact b) noexcept { return a.v_ >= b.v_; }

 private:
  T v_{};
};

template <typename T>
struct NumTraits<Exact<T>> {
  static constexpr int bits = NumTraits<T>::bits;
  static constexpr bool tapered = NumTraits<T>::tapered;
  static std::string name() { return NumTraits<T>::name(); }
  static constexpr double epsilon() noexcept { return NumTraits<T>::epsilon(); }
  static constexpr double default_tolerance() noexcept { return NumTraits<T>::default_tolerance(); }
  static double to_double(Exact<T> x) noexcept { return x.to_double(); }
  static Exact<T> from_double(double x) noexcept { return Exact<T>(x); }
};

}  // namespace mfla
