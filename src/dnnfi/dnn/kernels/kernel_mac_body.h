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

/// Conv over `blocks` lane-blocks of V::kLanes output channels: `w` in the
/// V::kLanes-interleaved layout, `bias` and `out` starting at the first
/// block's channel. Padded taps multiply a zero activation, so NaN/Inf
/// weights propagate as in the scalar reference.
template <class V>
void conv_blocks(const ConvGeom& g, const typename V::T* in,
                 const typename V::T* w, const typename V::T* bias,
                 typename V::T* out, std::size_t blocks) {
  using T = typename V::T;
  constexpr std::size_t L = V::kLanes;
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const std::size_t kvol = g.steps();
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  for (std::size_t b = 0; b < blocks; ++b) {
    const T* const wb = w + b * kvol * L;
    const T* const bb = bias + b * L;
    T* const ob = out + b * L * oplane;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        typename V::Acc acc = V::zero();
        const T* wt = wb;
        for (std::size_t ci = 0; ci < g.in_c; ++ci) {
          const T* const ic = in + ci * iplane;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            const bool row_ok =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            const T* const irow =
                row_ok ? ic + static_cast<std::size_t>(iy) * g.in_w : nullptr;
            for (std::size_t kx = 0; kx < g.k; ++kx, wt += L) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              T act{};
              if (row_ok && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(g.in_w))
                act = irow[static_cast<std::size_t>(ix)];
              acc = V::mac(acc, V::load_w(wt), V::splat(act));
            }
          }
        }
        alignas(64) T lane[L];
        V::store(V::finish(acc, bb), lane);
        const std::size_t pix = oy * g.out_w + ox;
        for (std::size_t l = 0; l < L; ++l) ob[l * oplane + pix] = lane[l];
      }
    }
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
