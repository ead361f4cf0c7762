// Mask-based fault operations (the "what" of an upset, orthogonal to the
// "where" of FaultDescriptor). Modeled on archie-qemu's fault_injection.h:
// an operation carries three bit masks applied to the struck word as
//
//   bits' = ((bits & ~set0) | set1) ^ toggle
//
// which subsumes the paper's XOR burst flip (a pure toggle mask), stuck-at-0
// and stuck-at-1 faults, and arbitrary multi-bit patterns. Mask bits above
// the struck format's MSB are dropped, like flip_burst always did.
//
// Algebra (locked down in test_properties.cpp): toggle is an involution
// (applying the same pure-toggle op twice is the identity), set0/set1 are
// idempotent, and the all-zero op is the identity element.
//
// Layering note: this header is a dependency-free leaf (numeric only) so
// that dnn/fault_hooks.h and accel/accelerator.h can both consume FaultOp
// without depending on the rest of the fault module.
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dnnfi/common/expects.h"
#include "dnnfi/numeric/traits.h"

namespace dnnfi::fault {

/// Coarse classification of an op, for reporting and CLI round-trips.
enum class FaultOpKind : std::uint8_t {
  kToggle,  ///< pure XOR flip (the paper's SEU / burst model)
  kSet0,    ///< stuck-at-0: affected bits forced to 0
  kSet1,    ///< stuck-at-1: affected bits forced to 1
  kMixed,   ///< more than one mask populated
};

constexpr const char* fault_op_kind_name(FaultOpKind k) {
  switch (k) {
    case FaultOpKind::kToggle: return "toggle";
    case FaultOpKind::kSet0:   return "set0";
    case FaultOpKind::kSet1:   return "set1";
    case FaultOpKind::kMixed:  return "mixed";
  }
  return "?";
}

/// One mask-based fault operation. Default-constructed is the identity
/// (no affected bits) — every real fault site carries a non-identity op.
struct FaultOp {
  std::uint64_t set0 = 0;    ///< bits forced to 0
  std::uint64_t set1 = 0;    ///< bits forced to 1
  std::uint64_t toggle = 0;  ///< bits XOR-flipped

  /// Contiguous toggle burst: `len` adjacent bits starting at `bit`
  /// (len = 1 is the paper's single-event upset). Exactly the mask
  /// numeric::flip_burst XORs, so legacy burst campaigns are unchanged.
  static constexpr FaultOp flip(int bit, int len = 1) {
    return FaultOp{0, 0, burst_mask(bit, len)};
  }
  /// Stuck-at-0 over a contiguous run of bits.
  static constexpr FaultOp stuck0(int bit, int len = 1) {
    return FaultOp{burst_mask(bit, len), 0, 0};
  }
  /// Stuck-at-1 over a contiguous run of bits.
  static constexpr FaultOp stuck1(int bit, int len = 1) {
    return FaultOp{0, burst_mask(bit, len), 0};
  }
  /// Arbitrary absolute mask under one kind.
  static constexpr FaultOp pattern(FaultOpKind k, std::uint64_t mask) {
    DNNFI_EXPECTS(mask != 0 && k != FaultOpKind::kMixed);
    switch (k) {
      case FaultOpKind::kSet0: return FaultOp{mask, 0, 0};
      case FaultOpKind::kSet1: return FaultOp{0, mask, 0};
      default:                 return FaultOp{0, 0, mask};
    }
  }

  /// Union of all affected bit positions.
  constexpr std::uint64_t affected() const noexcept {
    return set0 | set1 | toggle;
  }
  constexpr bool is_identity() const noexcept { return affected() == 0; }
  /// Lowest affected bit position (the descriptor's reported `bit`).
  constexpr int lowest_bit() const noexcept {
    return affected() == 0 ? 0 : std::countr_zero(affected());
  }
  constexpr FaultOpKind kind() const noexcept {
    const int populated = (set0 != 0) + (set1 != 0) + (toggle != 0);
    if (populated > 1) return FaultOpKind::kMixed;
    if (set0 != 0) return FaultOpKind::kSet0;
    if (set1 != 0) return FaultOpKind::kSet1;
    return FaultOpKind::kToggle;
  }
  /// True when the op is exactly the legacy contiguous toggle burst at
  /// `bit` of length `len` (the default campaign model).
  constexpr bool is_flip_burst(int bit, int len) const noexcept {
    return set0 == 0 && set1 == 0 && toggle == burst_mask(bit, len);
  }

  /// "toggle mask=0x0001", "set1 mask=0x00c0", "mixed set0=0x1 set1=0x2
  /// toggle=0x4". Masks print as zero-padded hex, at least four digits.
  std::string describe() const;

  friend constexpr bool operator==(const FaultOp&, const FaultOp&) = default;

  static constexpr std::uint64_t burst_mask(int bit, int len) {
    DNNFI_EXPECTS(bit >= 0 && bit < 64 && len >= 1);
    std::uint64_t m = 0;
    for (int i = 0; i < len && bit + i < 64; ++i)
      m |= std::uint64_t{1} << (bit + i);
    return m;
  }
};

/// Applies `op` to `v` in T's bit representation. Mask bits above T's MSB
/// are dropped (numeric_traits' bits_type narrowing), mirroring flip_burst.
template <typename T>
constexpr T apply_op(T v, const FaultOp& op) {
  using Tr = numeric::numeric_traits<T>;
  using B = typename Tr::bits_type;
  B b = Tr::to_bits(v);
  b = static_cast<B>(b & static_cast<B>(~op.set0));
  b = static_cast<B>(b | static_cast<B>(op.set1));
  b = static_cast<B>(b ^ static_cast<B>(op.toggle));
  return Tr::from_bits(b);
}

/// True when `op` turns the lowest affected bit of `v` from 0 into 1 (the
/// direction the paper finds more SDC-prone for high-order bits). For a
/// single-bit toggle this is exactly flip_is_zero_to_one.
template <typename T>
constexpr bool op_zero_to_one(T v, const FaultOp& op) {
  using Tr = numeric::numeric_traits<T>;
  using B = typename Tr::bits_type;
  const B affected = static_cast<B>(op.affected());
  if (affected == 0) return false;
  const int bit = std::countr_zero(affected);
  const bool before = (std::uint64_t{Tr::to_bits(v)} >> bit) & 1U;
  const bool after = (std::uint64_t{Tr::to_bits(apply_op(v, op))} >> bit) & 1U;
  return !before && after;
}

namespace detail {
/// Lower-case hex with "0x" prefix, zero-padded to at least four digits.
inline std::string hex_mask(std::uint64_t m) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  while (m != 0) {
    s.insert(s.begin(), kDigits[m & 0xF]);
    m >>= 4;
  }
  while (s.size() < 4) s.insert(s.begin(), '0');
  return "0x" + s;
}
}  // namespace detail

inline std::string FaultOp::describe() const {
  const FaultOpKind k = kind();
  std::string s = fault_op_kind_name(k);
  if (k != FaultOpKind::kMixed)
    return s + " mask=" + detail::hex_mask(affected());
  return s + " set0=" + detail::hex_mask(set0) +
         " set1=" + detail::hex_mask(set1) +
         " toggle=" + detail::hex_mask(toggle);
}

/// Bit-position-independent description of a fault operation, as selected by
/// `--fault-op`: the kind plus a *relative* footprint, materialized at the
/// sampled bit position per trial. `pattern == 0` means a contiguous burst
/// of `burst` bits (the legacy model); a non-zero pattern is an arbitrary
/// multi-bit mask anchored at its lowest set bit.
///
/// Canonical spellings (campaign identity in checkpoints/stats):
///   "toggle"        single-bit flip (the default)
///   "toggle:3"      3-bit contiguous toggle burst (the legacy --burst model)
///   "set1:4"        stuck-at-1 over a 4-bit contiguous run
///   "set0:0x5"      stuck-at-0 over two bits one apart
struct FaultOpSpec {
  FaultOpKind kind = FaultOpKind::kToggle;
  int burst = 1;               ///< contiguous footprint when pattern == 0
  std::uint64_t pattern = 0;   ///< relative mask; 0 = contiguous burst

  constexpr bool is_default() const noexcept {
    return kind == FaultOpKind::kToggle && burst == 1 && pattern == 0;
  }

  /// Materializes the op at bit position `bit` (the per-trial sampled bit).
  constexpr FaultOp at(int bit) const {
    std::uint64_t rel = pattern != 0 ? pattern : FaultOp::burst_mask(0, burst);
    rel >>= std::countr_zero(rel);  // anchor at the lowest set bit
    return FaultOp::pattern(kind, rel << bit);
  }

  std::string to_string() const {
    std::string s = fault_op_kind_name(kind);
    if (pattern != 0) return s + ":" + detail::hex_mask(pattern);
    if (burst > 1) return s + ":" + std::to_string(burst);
    return s;
  }

  /// Parses "kind", "kind:<burst>", or "kind:0x<mask>"; nullopt on error.
  static std::optional<FaultOpSpec> parse(std::string_view s) {
    FaultOpSpec spec;
    const std::size_t colon = s.find(':');
    const std::string_view head = s.substr(0, colon);
    if (head == "toggle") spec.kind = FaultOpKind::kToggle;
    else if (head == "set0") spec.kind = FaultOpKind::kSet0;
    else if (head == "set1") spec.kind = FaultOpKind::kSet1;
    else return std::nullopt;
    if (colon == std::string_view::npos) return spec;
    std::string_view tail = s.substr(colon + 1);
    if (tail.empty()) return std::nullopt;
    if (tail.substr(0, 2) == "0x") {
      tail.remove_prefix(2);
      auto [p, ec] = std::from_chars(tail.data(), tail.data() + tail.size(),
                                     spec.pattern, 16);
      if (ec != std::errc{} || p != tail.data() + tail.size() ||
          spec.pattern == 0)
        return std::nullopt;
    } else {
      auto [p, ec] =
          std::from_chars(tail.data(), tail.data() + tail.size(), spec.burst);
      if (ec != std::errc{} || p != tail.data() + tail.size() || spec.burst < 1)
        return std::nullopt;
    }
    return spec;
  }

  friend constexpr bool operator==(const FaultOpSpec&,
                                   const FaultOpSpec&) = default;
};

}  // namespace dnnfi::fault
