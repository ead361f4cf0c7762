// Runtime-dispatched compute kernels for the MAC layers (DESIGN.md §10).
//
// A KernelSet<T> bundles the conv / fully-connected / relu inner loops for
// one datapath type. The scalar reference set always exists and is the
// semantic ground truth: it performs exactly the MAC pipeline of
// Conv2d::compute_one (products and accumulations in T, (ci, ky, kx)
// accumulation order, padded taps multiplying a zero activation, trailing
// bias add). SIMD sets vectorize ACROSS output channels — one output per
// lane, each lane's accumulation chain identical to the scalar one — so
// every set's results are bit-identical to the reference and call sites with
// and without SIMD can be mixed freely without changing a single output bit.
// The SIMD conv additionally runs several output pixels' chains side by side
// to hide the per-tap latency; the chains share weight loads but never an
// accumulator, so that changes timing only.
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
// writes exactly the bits a full call writes there. The SIMD conv keeps its
// kChains pixel groups in a box-local flattened pixel order (chains span
// rows inside the box; for the full box that is the whole-plane order), and
// channels outside the region's full lane-blocks run the 1-lane tail.
// FC, relu, avgpool and softmax have no region: relu is elementwise (the
// executor calls it once per contiguous run), the rest always run whole.
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
// Packed weights: SIMD sets with pack_lanes > 0 consume a lane-interleaved
// copy of each MAC layer's weights, produced by pack_rows into the
// workspace arena at Workspace::bind time (the plan-time layout transform).
// Public tensors stay NCHW/OIHW; the packed copy is invisible outside the
// kernel call. Only full blocks of `lanes` rows are packed — remainder rows
// are read directly from the row-major weights, which are the 1-lane packed
// layout. Sets with pack_lanes == 0 read the row-major weights throughout:
// the scalar reference, and the avx512 fixed-point sets, whose lanes gather
// one weight per output row (no per-workspace copy, so no extra memory, and
// conv_forward / fc_forward below run them at layer level too).
//
// Fixed point: the avx512 sets for Fx16r10 / Fx32r10 / Fx32r26 compute each
// tap as Fixed::operator* then operator+ in exact int64 arithmetic (product,
// rounding shift, saturate; sum, saturate), so they are bit-identical by
// construction. There is no avx2 fixed-point set.
#pragma once

#include <cstddef>
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
/// non-finite inputs contribute exp(-inf) = 0 (see Softmax in layers.h).
template <typename T>
using SoftmaxFn = void (*)(const T* in, T* out, std::size_t n);

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

/// Dispatch helpers for layer-level call sites (no workspace, so no packed
/// copy): run the active set when it needs no packing (scalar, or avx512
/// fixed point), otherwise the scalar reference. Every set being
/// bit-identical, this is indistinguishable from
/// the Executor's packed path.
template <typename T>
void conv_forward(const ConvGeom& g, const T* in, const T* w, const T* bias,
                  T* out);
template <typename T>
void fc_forward(const FcGeom& g, const T* in, const T* w, const T* bias,
                T* out);
template <typename T>
void relu_forward(const T* in, T* out, std::size_t n);
template <typename T>
void lrn_forward(const LrnGeom& g, const T* in, T* out);
template <typename T>
void maxpool_forward(const PoolGeom& g, const T* in, T* out);
template <typename T>
void avgpool_forward(const T* in, T* out, std::size_t channels,
                     std::size_t plane);
template <typename T>
void softmax_forward(const T* in, T* out, std::size_t n);

#define DNNFI_KERNELS_EXTERN(T)                                             \
  extern template const KernelSet<T>& scalar_kernels<T>() noexcept;         \
  extern template const KernelSet<T>& active_kernels<T>() noexcept;         \
  extern template const KernelSet<T>* kernel_set<T>(std::string_view)       \
      noexcept;                                                             \
  extern template std::vector<const char*> registered_names<T>();           \
  extern template void pack_rows<T>(const T*, std::size_t, std::size_t,     \
                                    std::size_t, T*);                       \
  extern template void conv_forward<T>(const ConvGeom&, const T*, const T*, \
                                       const T*, T*);                       \
  extern template void fc_forward<T>(const FcGeom&, const T*, const T*,     \
                                     const T*, T*);                         \
  extern template void relu_forward<T>(const T*, T*, std::size_t);          \
  extern template void lrn_forward<T>(const LrnGeom&, const T*, T*);        \
  extern template void maxpool_forward<T>(const PoolGeom&, const T*, T*);   \
  extern template void avgpool_forward<T>(const T*, T*, std::size_t,        \
                                          std::size_t);                     \
  extern template void softmax_forward<T>(const T*, T*, std::size_t)

DNNFI_KERNELS_EXTERN(double);
DNNFI_KERNELS_EXTERN(float);
DNNFI_KERNELS_EXTERN(numeric::Half);
DNNFI_KERNELS_EXTERN(numeric::Fx32r26);
DNNFI_KERNELS_EXTERN(numeric::Fx32r10);
DNNFI_KERNELS_EXTERN(numeric::Fx16r10);
#undef DNNFI_KERNELS_EXTERN

}  // namespace dnnfi::dnn::kernels
