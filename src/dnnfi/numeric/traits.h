// Uniform compile-time interface over the six datapath types of the paper
// (Table 3): DOUBLE, FLOAT, FLOAT16, 32b_rb26, 32b_rb10, 16b_rb10. The fault
// injector, the FIT model, and the bit-position analysis all speak through
// numeric_traits so they cannot disagree about widths or bit layouts.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "dnnfi/common/expects.h"
#include "dnnfi/numeric/fixed.h"
#include "dnnfi/numeric/half.h"

namespace dnnfi::numeric {

template <typename T>
struct numeric_traits;

template <>
struct numeric_traits<double> {
  using bits_type = std::uint64_t;
  static constexpr int width = 64;
  static constexpr bool is_floating = true;
  static constexpr const char* name = "DOUBLE";
  /// Bit indices [lo, hi) of the exponent field (bit 0 = LSB).
  static constexpr int exponent_lo = 52, exponent_hi = 63;
  static constexpr bits_type to_bits(double v) noexcept {
    return std::bit_cast<bits_type>(v);
  }
  static constexpr double from_bits(bits_type b) noexcept {
    return std::bit_cast<double>(b);
  }
  static constexpr double from_double(double v) noexcept { return v; }
  static constexpr double to_double(double v) noexcept { return v; }
  static constexpr double max_magnitude() noexcept {
    return std::numeric_limits<double>::max();
  }
  static bool is_finite(double v) noexcept { return std::isfinite(v); }
};

template <>
struct numeric_traits<float> {
  using bits_type = std::uint32_t;
  static constexpr int width = 32;
  static constexpr bool is_floating = true;
  static constexpr const char* name = "FLOAT";
  static constexpr int exponent_lo = 23, exponent_hi = 31;
  static constexpr bits_type to_bits(float v) noexcept {
    return std::bit_cast<bits_type>(v);
  }
  static constexpr float from_bits(bits_type b) noexcept {
    return std::bit_cast<float>(b);
  }
  static constexpr float from_double(double v) noexcept {
    return static_cast<float>(v);
  }
  static constexpr double to_double(float v) noexcept {
    return static_cast<double>(v);
  }
  static constexpr double max_magnitude() noexcept {
    return static_cast<double>(std::numeric_limits<float>::max());
  }
  static bool is_finite(float v) noexcept { return std::isfinite(v); }
};

template <>
struct numeric_traits<Half> {
  using bits_type = std::uint16_t;
  static constexpr int width = 16;
  static constexpr bool is_floating = true;
  static constexpr const char* name = "FLOAT16";
  static constexpr int exponent_lo = 10, exponent_hi = 15;
  static constexpr bits_type to_bits(Half v) noexcept { return v.bits(); }
  static constexpr Half from_bits(bits_type b) noexcept {
    return Half::from_bits(b);
  }
  static constexpr Half from_double(double v) noexcept { return Half(v); }
  static constexpr double to_double(Half v) noexcept {
    return static_cast<double>(v);
  }
  static constexpr double max_magnitude() noexcept { return 65504.0; }
  static bool is_finite(Half v) noexcept { return !v.is_nan() && !v.is_inf(); }
};

template <int W, int F>
struct numeric_traits<Fixed<W, F>> {
  using T = Fixed<W, F>;
  using bits_type = typename T::bits_type;
  static constexpr int width = W;
  static constexpr bool is_floating = false;
  static constexpr const char* name =
      (W == 16 && F == 10)   ? "16b_rb10"
      : (W == 32 && F == 10) ? "32b_rb10"
      : (W == 32 && F == 26) ? "32b_rb26"
                             : "fixed";
  /// For fixed point, the "vulnerable" field is the integer part + sign:
  /// bits [F, W). Exposed under the same name for uniform reporting.
  static constexpr int exponent_lo = F, exponent_hi = W;
  static constexpr bits_type to_bits(T v) noexcept { return v.bits(); }
  static constexpr T from_bits(bits_type b) noexcept { return T::from_bits(b); }
  static constexpr T from_double(double v) noexcept { return T(v); }
  static constexpr double to_double(T v) noexcept {
    return static_cast<double>(v);
  }
  static constexpr double max_magnitude() noexcept {
    return static_cast<double>(T::max_value());
  }
  static bool is_finite(T) noexcept { return true; }
};

/// Flips bit `bit` (0 = LSB) of `v` and returns the corrupted value. This is
/// the single-event-upset primitive every fault site reduces to.
template <typename T>
constexpr T flip_bit(T v, int bit) noexcept(false) {
  using Tr = numeric_traits<T>;
  DNNFI_EXPECTS(bit >= 0 && bit < Tr::width);
  using B = typename Tr::bits_type;
  const B mask = static_cast<B>(static_cast<B>(1) << bit);
  return Tr::from_bits(static_cast<B>(Tr::to_bits(v) ^ mask));
}

/// Flips a burst of `len` adjacent bits starting at `bit` (multi-bit upset
/// from a single particle strike; len = 1 is the paper's SEU model). Bits
/// past the word's MSB are dropped.
template <typename T>
constexpr T flip_burst(T v, int bit, int len) {
  using Tr = numeric_traits<T>;
  DNNFI_EXPECTS(bit >= 0 && bit < Tr::width && len >= 1);
  using B = typename Tr::bits_type;
  B mask = 0;
  for (int i = 0; i < len && bit + i < Tr::width; ++i)
    mask = static_cast<B>(mask | (static_cast<B>(1) << (bit + i)));
  return Tr::from_bits(static_cast<B>(Tr::to_bits(v) ^ mask));
}

/// True when flipping `bit` of `v` turns a 0 into a 1 (the direction the
/// paper finds more SDC-prone for high-order bits).
template <typename T>
constexpr bool flip_is_zero_to_one(T v, int bit) {
  using Tr = numeric_traits<T>;
  DNNFI_EXPECTS(bit >= 0 && bit < Tr::width);
  return ((std::uint64_t{Tr::to_bits(v)} >> bit) & 1U) == 0;
}

}  // namespace dnnfi::numeric
