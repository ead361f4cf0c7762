// The one conv / fully-connected / relu lane-block body shared by the AVX2
// and AVX-512 kernel TUs (kernel_avx2.cpp, kernel_avx512.cpp).
//
// Internal header: each ISA TU includes it INSIDE its anonymous namespace,
// after <immintrin.h>, <cstddef>, <cstdint> and <cstring>, so every
// instantiation has internal linkage and is compiled with that TU's ISA
// flags — the codegen-safety rule of kernel_avx2.cpp holds unchanged.
//
// Each TU defines one vector trait V per datapath type next to its
// intrinsics. V provides:
//   T, kLanes                    element type (std::uint16_t = Half bits)
//   Acc, zero()                  per-lane accumulator
//   load_w(const T*)             kLanes packed weights
//   splat(T)                     one activation broadcast to every lane
//   mac(acc, w, a)               acc + w * a as a separate multiply then add
//                                (Half: rounded to half after each)
//   finish(acc, const T* bias)   trailing bias add (and rounding)
//   store(result, T* lanes)      kLanes contiguous outputs
//   relu_block(const T*, T*)     relu over kLanes contiguous elements
// so each lane runs exactly the scalar reference's accumulation chain.
//
// The conv body keeps kChains output pixels in flight per lane-block pass,
// one independent accumulator chain each, sharing every weight load. Chains
// never read each other's accumulators, so the interleaving only reorders
// independent work: every output is still its own chain, bit for bit.
//
// Rows past the last full lane-block run the same body through the 1-lane
// ScalarLane<T> traits below: a 1-lane packed layout IS the row-major OIHW
// (conv) / row (fc) layout, so the tail is the body on w + blocks*L*kvol.
#pragma once

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

inline std::uint16_t canonical_nan_bits(float v) noexcept {
  std::uint32_t fb;
  std::memcpy(&fb, &v, sizeof(fb));
  return static_cast<std::uint16_t>(((fb >> 16) & 0x8000U) | 0x7E00U);
}

// float -> half bits with the library's canonical-NaN rule, one lane
// (VCVTPS2PH would truncate the NaN payload instead, diverging from the
// software converter).
inline std::uint16_t f2h(float v) noexcept {
  if (v != v) return canonical_nan_bits(v);
  return static_cast<std::uint16_t>(_cvtss_sh(v, kRne));
}

inline const std::uint16_t* bits(const numeric::Half* p) noexcept {
  return reinterpret_cast<const std::uint16_t*>(p);
}
inline std::uint16_t* bits(numeric::Half* p) noexcept {
  return reinterpret_cast<std::uint16_t*>(p);
}

/// 1-lane trait for float and double: kernel_scalar.h semantics verbatim
/// (-ffp-contract=off keeps the multiply and add separate).
template <typename F>
struct ScalarLane {
  using T = F;
  using Acc = F;
  static constexpr std::size_t kLanes = 1;
  static Acc zero() noexcept { return F{}; }
  static F load_w(const F* p) noexcept { return *p; }
  static F splat(F a) noexcept { return a; }
  static Acc mac(Acc acc, F w, F a) noexcept {
    const F product = w * a;
    return acc + product;
  }
  static F finish(Acc acc, const F* bias) noexcept { return acc + *bias; }
  static void store(F r, F* lanes) noexcept { *lanes = r; }
  static void relu_block(const F* in, F* out) noexcept {
    *out = (*in > F{}) ? *in : F{};
  }
};

/// 1-lane trait for Half bits: float compute, rounded to half after every
/// operation with single-lane F16C converts. The hardware converts are
/// bit-identical to the software ones (verified exhaustively by
/// test_numeric_half), so this matches the scalar reference regardless of
/// which conversion path the reference build uses.
template <>
struct ScalarLane<std::uint16_t> {
  using T = std::uint16_t;
  using Acc = std::uint16_t;
  static constexpr std::size_t kLanes = 1;
  static Acc zero() noexcept { return 0; }
  static float load_w(const T* p) noexcept { return _cvtsh_ss(*p); }
  static float splat(T a) noexcept { return _cvtsh_ss(a); }
  static Acc mac(Acc acc, float w, float a) noexcept {
    const T product = f2h(w * a);
    return f2h(_cvtsh_ss(acc) + _cvtsh_ss(product));
  }
  static T finish(Acc acc, const T* bias) noexcept {
    return f2h(_cvtsh_ss(acc) + _cvtsh_ss(*bias));
  }
  static void store(T r, T* lanes) noexcept { *lanes = r; }
  static void relu_block(const T* in, T* out) noexcept {
    *out = (_cvtsh_ss(*in) > 0.0f) ? *in : T{0};
  }
};

/// Output pixels conv_blocks keeps in flight per lane-block pass: one
/// independent accumulator chain each. A Half tap is a ~20-cycle serial
/// chain (cvtph -> add -> cvtps_ph), so a single chain leaves the SIMD units
/// idle; 4 chains hide most of that latency, and 8 measured no faster.
constexpr std::size_t kChains = 4;

/// P consecutive flattened output pixels pix0 .. pix0+P-1 of one lane-block
/// (a group may wrap an output row): one accumulator chain per pixel, each
/// weight load shared by the P chains. Every chain is exactly the scalar
/// reference's — same (ci, ky, kx) tap order, same mac — and no chain ever
/// reads another's accumulator, so interleaving them cannot change a bit.
template <class V, std::size_t P>
void conv_pixels(const ConvGeom& g, const typename V::T* in,
                 const typename V::T* wb, const typename V::T* bb,
                 typename V::T* ob, std::size_t pix0) {
  using T = typename V::T;
  constexpr std::size_t L = V::kLanes;
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const std::size_t oplane = g.out_h * g.out_w;
  std::ptrdiff_t y0[P], x0[P];
  typename V::Acc acc[P];
  for (std::size_t p = 0; p < P; ++p) {
    y0[p] = static_cast<std::ptrdiff_t>((pix0 + p) / g.out_w * g.stride) - pad;
    x0[p] = static_cast<std::ptrdiff_t>((pix0 + p) % g.out_w * g.stride) - pad;
    acc[p] = V::zero();
  }
  const T* wt = wb;
  for (std::size_t ci = 0; ci < g.in_c; ++ci) {
    const T* const ic = in + ci * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      const T* irow[P];  // null: the pixel's input row is padding
      for (std::size_t p = 0; p < P; ++p) {
        const std::ptrdiff_t iy = y0[p] + static_cast<std::ptrdiff_t>(ky);
        irow[p] = (iy >= 0 && iy < in_h) ? ic + iy * in_w : nullptr;
      }
      for (std::size_t kx = 0; kx < g.k; ++kx, wt += L) {
        const auto wv = V::load_w(wt);
#pragma GCC unroll 8  // keeps acc[] in registers
        for (std::size_t p = 0; p < P; ++p) {
          const std::ptrdiff_t ix = x0[p] + static_cast<std::ptrdiff_t>(kx);
          const T act = (irow[p] && ix >= 0 && ix < in_w) ? irow[p][ix] : T{};
          acc[p] = V::mac(acc[p], wv, V::splat(act));
        }
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    alignas(64) T lane[L];
    V::store(V::finish(acc[p], bb), lane);
    for (std::size_t l = 0; l < L; ++l) ob[l * oplane + pix0 + p] = lane[l];
  }
}

/// Conv over `blocks` lane-blocks of V::kLanes output channels: `w` in the
/// V::kLanes-interleaved layout, `bias` and `out` starting at the first
/// block's channel. Each block's output plane runs kChains pixels at a time,
/// the last oplane % kChains one at a time. Padded taps multiply a zero
/// activation, so NaN/Inf weights propagate as in the scalar reference.
template <class V>
void conv_blocks(const ConvGeom& g, const typename V::T* in,
                 const typename V::T* w, const typename V::T* bias,
                 typename V::T* out, std::size_t blocks) {
  constexpr std::size_t L = V::kLanes;
  const std::size_t oplane = g.out_h * g.out_w;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto* const wb = w + b * g.steps() * L;
    const auto* const bb = bias + b * L;
    auto* const ob = out + b * L * oplane;
    std::size_t pix = 0;
    for (; pix + kChains <= oplane; pix += kChains)
      conv_pixels<V, kChains>(g, in, wb, bb, ob, pix);
    for (; pix < oplane; ++pix) conv_pixels<V, 1>(g, in, wb, bb, ob, pix);
  }
}

/// Fully-connected over `blocks` lane-blocks; layout as for conv_blocks.
template <class V>
void fc_blocks(const FcGeom& g, const typename V::T* in,
               const typename V::T* w, const typename V::T* bias,
               typename V::T* out, std::size_t blocks) {
  constexpr std::size_t L = V::kLanes;
  for (std::size_t b = 0; b < blocks; ++b) {
    const typename V::T* wt = w + b * g.in * L;
    typename V::Acc acc = V::zero();
    for (std::size_t i = 0; i < g.in; ++i, wt += L)
      acc = V::mac(acc, V::load_w(wt), V::splat(in[i]));
    V::store(V::finish(acc, bias + b * L), out + b * L);
  }
}

/// A full ConvFn: lane-blocks from the packed copy `wp` (never dereferenced
/// when out_c < kLanes), remaining rows from the row-major `w`.
template <class V>
void conv_lanes(const ConvGeom& g, const typename V::T* in,
                const typename V::T* w, const typename V::T* wp,
                const typename V::T* bias, typename V::T* out) {
  const std::size_t blocks = g.out_c / V::kLanes;
  const std::size_t done = blocks * V::kLanes;
  conv_blocks<V>(g, in, wp, bias, out, blocks);
  conv_blocks<ScalarLane<typename V::T>>(g, in, w + done * g.steps(),
                                         bias + done,
                                         out + done * g.out_h * g.out_w,
                                         g.out_c - done);
}

/// A full FcFn; weights as for conv_lanes.
template <class V>
void fc_lanes(const FcGeom& g, const typename V::T* in,
              const typename V::T* w, const typename V::T* wp,
              const typename V::T* bias, typename V::T* out) {
  const std::size_t blocks = g.out / V::kLanes;
  const std::size_t done = blocks * V::kLanes;
  fc_blocks<V>(g, in, wp, bias, out, blocks);
  fc_blocks<ScalarLane<typename V::T>>(g, in, w + done * g.in, bias + done,
                                       out + done, g.out - done);
}

/// A full EltwiseFn (relu): kLanes-wide blocks, then a 1-lane tail.
template <class V>
void relu_lanes(const typename V::T* in, typename V::T* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) V::relu_block(in + i, out + i);
  for (; i < n; ++i) ScalarLane<typename V::T>::relu_block(in + i, out + i);
}
