// Runtime-dispatched compute kernels for the MAC layers (DESIGN.md §10).
//
// A KernelSet<T> bundles the conv / fully-connected / relu inner loops for
// one datapath type. The scalar reference set always exists and is the
// semantic ground truth: every output is one MAC chain in T (multiply, then
// add to the accumulator, rounded after each; (ci, ky, kx) accumulation
// order, padded taps multiplying a zero activation, trailing bias add).
// SIMD sets vectorize ACROSS output channels — one output per
// lane, each lane's accumulation chain identical to the scalar one — so
// every set's results are bit-identical to the reference and call sites with
// and without SIMD can be mixed freely without changing a single output bit.
// The SIMD conv additionally runs several output pixels' chains side by side
// to hide the per-tap latency; the chains share weight loads but never an
// accumulator, so that changes timing only. The avx512fp16 set's stride-1
// conv packs two outputs into one vector: it stages the region's input
// window, zero-padded, on the stack once per call, and each zmm holds one
// 16-channel lane-block of two horizontally adjacent outputs (lane 2j is
// channel j of output x, lane 2j + 1 channel j of output x + 1), fed per tap
// by one 32-bit broadcast of the activation pair and the block's weights
// widened to 32 lanes. Each lane is still one output's chain in the
// reference order, a padded tap multiplying a staged +0.
//
// One documented hole in the bit-identity claim: when two NaNs with
// DIFFERENT bit patterns meet in a single addition, x86 keeps whichever
// operand the compiler put first, and neither IEEE 754 nor C++ pins that
// order down (GCC freely commutes — and auto-vectorizes — the reference's
// accumulation). Outputs whose chains only ever see one NaN bit pattern
// (the common case: a single fault-injected NaN propagating, or the fixed
// "indefinite" NaN from Inf*0 / Inf-Inf) are exact: x86 propagates a lone
// NaN operand verbatim. Campaign aggregates never resolve the hole either
// way, since outcome classification and distance metrics treat all NaNs
// alike. There is no other exception.
//
// Output regions: conv, LRN and maxpool compute one Region of their output
// — a half-open channel x row x column box — and write nothing outside it.
// A full-layer call passes the geometry's full() box; the executor's
// dirty-region replay (DESIGN.md §8) passes the box a fault can reach. An
// output's chain is the same whichever box holds it, so a region call
// writes exactly the bits a full call writes there. The SIMD conv runs the
// region's full lane-blocks in groups of its trait's kGroup, keeps its
// kChains pixel groups in a box-local flattened pixel order (chains span
// rows inside the box; for the full box that is the whole-plane order), and
// runs the channels outside those blocks through the 1-lane tail. The
// avx512fp16 stride-1 body walks the box's outputs in pairs instead, 4 pairs
// per group in the same row-major order; an odd-width row's last pair
// computes a spare partner outside the box and never stores it.
// FC, relu, avgpool and softmax have no region: relu is elementwise (the
// executor calls it once per contiguous run), the rest always run whole.
//
// Single chains: `chain` and `chain_pair` run one output's MAC chain over
// gathered taps, for the outputs a fault rewrites (apply_faults in
// layers.h, DESIGN.md §8). The scalar set runs the
// reference loop; the avx2 and avx512 FLOAT16 sets the 1-lane F16C trait of
// kernel_mac_body.h; avx512fp16 native binary16 with the canonical-NaN
// rewrite once per call; every other set the scalar entries.
//
// Selection happens once per process: the DNNFI_KERNELS environment variable
// ("scalar" | "avx2" | "avx512" | "avx512fp16" | "auto"/unset) is combined
// with CPUID probes (numeric/cpu.h); "auto" prefers avx512fp16 > avx512 >
// avx2 > scalar, and requesting an unavailable set falls back to scalar.
// avx512fp16 exists for FLOAT16 only (native VMULPH / VADDPH Half conv and
// fc, bit-identical to the F16C round trip of the avx512 Half set; the
// argument is in kernel_avx512fp16.cpp): under "avx512fp16" every other
// type resolves as "avx512", and "avx512" keeps FLOAT16 on the F16C path.
// ExecutionPlan<T> captures the active set at plan-build time.
//
// Packed weights: every SIMD set consumes a lane-interleaved copy of each
// MAC layer's weights (pack_lanes > 0), produced by pack_rows into the one
// copy the ExecutionPlan owns (the plan-time layout transform, re-taken by
// Network::update_params). Public tensors stay NCHW/OIHW; the packed copy
// is invisible outside the kernel call. Only full blocks of `lanes` rows
// are packed — remainder rows are read directly from the row-major weights,
// which are the 1-lane packed layout. Only the scalar reference has
// pack_lanes == 0 and reads the row-major weights throughout.
//
// Fixed point: the avx512 sets for Fx16r10 / Fx32r10 / Fx32r26 compute each
// tap as Fixed::operator* then operator+ in exact int64 arithmetic (product,
// rounding shift, saturate; sum, saturate) over an 8-lane packed copy, so
// they are bit-identical by construction. There is no avx2 fixed-point set.
// When a call can prove that neither saturation fires, they drop both. With
// rnd(p) = (p + 2^(F-1)) >> F, |rnd(w*a)| <= |w|*|a| / 2^F + 1, so a chain
// of n taps over activations |a| <= A has every product and every prefix sum
// within S_w*A / 2^F + n, where S_w is the largest per-output-channel
// sum |w| of the layer's raw weights. fixed_act_limit returns the largest A
// that keeps that within RawMax; the plan stores it in the geometry's
// act_limit when it takes the packed copy. A conv or FC call whose input
// window holds no |a| above act_limit runs the lane-blocks unsaturated:
// both saturations are then the identity, the plain int64 chain (|sum| <
// 2^31) is the reference bit for bit, and the bias add and the final narrow
// still saturate. act_limit 0 means "unproven" and always saturates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dnnfi/numeric/fixed.h"
#include "dnnfi/numeric/half.h"

namespace dnnfi::dnn::kernels {

/// Half-open channel x row x column box [c0, c1) x [y0, y1) x [x0, x1) of
/// a CHW output: the outputs one kernel call computes.
struct Region {
  std::size_t c0 = 0, c1 = 0;
  std::size_t y0 = 0, y1 = 0;
  std::size_t x0 = 0, x1 = 0;

  constexpr bool empty() const noexcept {
    return c0 >= c1 || y0 >= y1 || x0 >= x1;
  }
  /// Element count (0 when empty).
  constexpr std::size_t size() const noexcept {
    return empty() ? 0 : (c1 - c0) * (y1 - y0) * (x1 - x0);
  }
  friend constexpr bool operator==(const Region&, const Region&) = default;
};

/// Resolved convolution geometry: square kernel, zero padding, CHW input
/// and output, OIHW weights.
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, out_h = 0, out_w = 0;
  std::size_t k = 0, stride = 0, pad = 0;
  /// Fixed point only: fixed_act_limit of the weights (0: unproven).
  std::int64_t act_limit = 0;

  /// Accumulation steps per output element (the kernel volume).
  constexpr std::size_t steps() const noexcept { return in_c * k * k; }
  /// The whole output.
  constexpr Region full() const noexcept {
    return {0, out_c, 0, out_h, 0, out_w};
  }
};

/// Resolved fully-connected geometry: out x in row-major weights.
struct FcGeom {
  std::size_t in = 0, out = 0;
  /// Fixed point only: fixed_act_limit of the weights (0: unproven).
  std::int64_t act_limit = 0;
};

/// Resolved local-response-normalization geometry: CHW input, odd channel
/// window of `size`, out[c] = in[c] / (k + alpha/size * sum_window in^2)^beta
/// with the window sum and pow at double internal precision.
struct LrnGeom {
  std::size_t c = 0, h = 0, w = 0;
  std::size_t size = 0;
  double alpha = 0.0, beta = 0.0, k = 0.0;

  /// The whole output (shaped like the input).
  constexpr Region full() const noexcept { return {0, c, 0, h, 0, w}; }
};

/// Resolved pooling geometry: CHW input and output, square window, no
/// padding (out_h = (in_h - k) / stride + 1, same for width).
struct PoolGeom {
  std::size_t c = 0;
  std::size_t in_h = 0, in_w = 0;
  std::size_t out_h = 0, out_w = 0;
  std::size_t k = 0, stride = 0;

  /// The whole output.
  constexpr Region full() const noexcept {
    return {0, c, 0, out_h, 0, out_w};
  }
};

/// Convolution kernel over the outputs in `r` (within g.full()). `w` is the
/// row-major OIHW weight array; `w_packed` is the pack_rows copy (pass null
/// when the set's pack_lanes == 0, or when the geometry yields zero full
/// blocks — it is only dereferenced inside full blocks).
template <typename T>
using ConvFn = void (*)(const ConvGeom&, const Region& r, const T* in,
                        const T* w, const T* w_packed, const T* bias, T* out);

/// Fully-connected kernel; `w_packed` as for ConvFn.
template <typename T>
using FcFn = void (*)(const FcGeom&, const T* in, const T* w,
                      const T* w_packed, const T* bias, T* out);

/// Elementwise kernel (relu): out[i] = max(in[i], 0) in T semantics.
template <typename T>
using EltwiseFn = void (*)(const T* in, T* out, std::size_t n);

/// Local-response-normalization kernel (see LrnGeom) over the outputs in
/// `r`; window channels outside r.c0..r.c1 are read, not written.
template <typename T>
using LrnFn = void (*)(const LrnGeom&, const Region& r, const T* in, T* out);

/// Max-pooling kernel over the outputs in `r`: per output, the window max
/// under the scalar reference's `if (v > best)` comparison semantics (NaNs
/// never win).
template <typename T>
using PoolFn = void (*)(const PoolGeom&, const Region& r, const T* in,
                        T* out);

/// Global average pool: out[c] = mean of the `plane`-element channel plane,
/// summed sequentially at double precision then re-quantized to T.
template <typename T>
using AvgPoolFn = void (*)(const T* in, T* out, std::size_t channels,
                           std::size_t plane);

/// Softmax over n elements: max-shifted, exp/sum at double precision,
/// non-finite inputs contribute exp(-inf) = 0 (see scalar_softmax).
template <typename T>
using SoftmaxFn = void (*)(const T* in, T* out, std::size_t n);

/// One output's MAC chain over n gathered taps from `*acc`: for i in
/// [0, n), acc = acc + w[i] * a[i], multiplied then added and rounded as the
/// scalar reference rounds; n = 0 leaves `*acc` untouched.
template <typename T>
using ChainFn = void (*)(const T* w, const T* a, std::size_t n, T* acc);

/// A faulty (`*acc`) and a golden (`*gold`) chain over the same n taps:
/// both advance tap by tap until they are bit-equal. Returns k, the first
/// count of taps in [0, n] after which they are (both then hold that
/// value), or n + 1 when they never are (both then hold their value after
/// all n taps). Either accumulator may enter holding any bit pattern.
template <typename T>
using ChainPairFn = std::size_t (*)(const T* w, const T* a, std::size_t n,
                                    T* acc, T* gold);

/// One registered kernel family for one datapath type.
template <typename T>
struct KernelSet {
  const char* name = "scalar";
  /// Lane-interleave width of the packed weight layout this set consumes
  /// (0: the set reads row-major weights directly; nothing to pack).
  std::size_t pack_lanes = 0;
  ConvFn<T> conv = nullptr;
  FcFn<T> fc = nullptr;
  EltwiseFn<T> relu = nullptr;
  LrnFn<T> lrn = nullptr;
  PoolFn<T> maxpool = nullptr;
  AvgPoolFn<T> avgpool = nullptr;
  SoftmaxFn<T> softmax = nullptr;
  ChainFn<T> chain = nullptr;
  ChainPairFn<T> chain_pair = nullptr;
};

/// The scalar reference set: always available, always bit-identical.
template <typename T>
const KernelSet<T>& scalar_kernels() noexcept;

/// The process-wide active set for T, resolved once from DNNFI_KERNELS and
/// CPUID (or from the last set_active_mode override). Returned references
/// have static storage duration: an ExecutionPlan may hold one forever.
template <typename T>
const KernelSet<T>& active_kernels() noexcept;

/// Looks up a registered set by name regardless of DNNFI_KERNELS; null when
/// the name is unknown for T or this CPU lacks the required features.
template <typename T>
const KernelSet<T>* kernel_set(std::string_view name) noexcept;

/// Names of every set available for T on this CPU, scalar first.
template <typename T>
std::vector<const char*> registered_names();

/// Overrides the mode used by subsequent active_kernels calls (and thus
/// subsequently built ExecutionPlans) for every datapath type: one of
/// "scalar", "avx2", "avx512", "avx512fp16", or "auto" to restore the
/// DNNFI_KERNELS / CPUID default. Returns false (and changes nothing) for
/// unknown names. For tests and benches; call before building the plans it
/// should affect.
bool set_active_mode(std::string_view mode);

/// The resolved hardware/dispatch profile, for bench JSON attribution.
struct KernelProfile {
  std::string mode;  ///< requested: auto/scalar/avx2/avx512/avx512fp16
  bool cpu_avx2 = false;       ///< CPUID probe results
  bool cpu_avx512 = false;     ///< the avx512 kernel bundle (F+BW+VL+DQ)
  bool cpu_avx512fp16 = false; ///< native binary16 arithmetic
  bool cpu_f16c = false;
  bool f16c_compiled = false;  ///< hardware Half conversions built in
  std::string active_float;    ///< resolved set name for FLOAT
  std::string active_float16;  ///< resolved set name for FLOAT16
};
KernelProfile kernel_profile();

/// Packed element count for `rows` x `cols` row-major weights interleaved
/// `lanes` wide: only full blocks of `lanes` rows pack.
constexpr std::size_t packed_elems(std::size_t rows, std::size_t cols,
                                   std::size_t lanes) noexcept {
  return lanes == 0 ? 0 : (rows / lanes) * cols * lanes;
}

/// Interleaves full lane-blocks of a rows x cols row-major weight array:
/// dst[(b*cols + c)*lanes + l] = w[(b*lanes + l)*cols + c]. Writes exactly
/// packed_elems(rows, cols, lanes) elements; remainder rows are not packed.
template <typename T>
void pack_rows(const T* w, std::size_t rows, std::size_t cols,
               std::size_t lanes, T* dst);

/// For Fixed<W,F> weights (rows x cols, row-major; cols = the tap count
/// n): the largest raw activation magnitude A for which no rounded product
/// and no prefix sum of any row's MAC chain can leave [RawMin, RawMax] (see
/// the fixed-point paragraph above): floor((RawMax - n) * 2^F / S_w), with
/// S_w the largest row's sum of |raw weight|. RawMax when every weight is
/// zero; 0 (unproven) when n >= RawMax.
template <typename T>
std::int64_t fixed_act_limit(const T* w, std::size_t rows,
                             std::size_t cols) noexcept;

#define DNNFI_KERNELS_EXTERN(T)                                             \
  extern template const KernelSet<T>& scalar_kernels<T>() noexcept;         \
  extern template const KernelSet<T>& active_kernels<T>() noexcept;         \
  extern template const KernelSet<T>* kernel_set<T>(std::string_view)       \
      noexcept;                                                             \
  extern template std::vector<const char*> registered_names<T>();           \
  extern template void pack_rows<T>(const T*, std::size_t, std::size_t,     \
                                    std::size_t, T*)

DNNFI_KERNELS_EXTERN(double);
DNNFI_KERNELS_EXTERN(float);
DNNFI_KERNELS_EXTERN(numeric::Half);
DNNFI_KERNELS_EXTERN(numeric::Fx32r26);
DNNFI_KERNELS_EXTERN(numeric::Fx32r10);
DNNFI_KERNELS_EXTERN(numeric::Fx16r10);
#undef DNNFI_KERNELS_EXTERN

extern template std::int64_t fixed_act_limit<numeric::Fx32r26>(
    const numeric::Fx32r26*, std::size_t, std::size_t) noexcept;
extern template std::int64_t fixed_act_limit<numeric::Fx32r10>(
    const numeric::Fx32r10*, std::size_t, std::size_t) noexcept;
extern template std::int64_t fixed_act_limit<numeric::Fx16r10>(
    const numeric::Fx16r10*, std::size_t, std::size_t) noexcept;

}  // namespace dnnfi::dnn::kernels
