// AVX-512 MAC kernel implementations: 16 float / 8 double / 16 Half / 8
// fixed-point outputs per lane-block. Compiled with -mavx512f -mavx512bw
// -mavx512vl -mavx512dq -mf16c and -ffp-contract=off (src/CMakeLists.txt);
// entered only behind the cpu_has_avx512_kernel_bundle runtime probe, so
// DNNFI-built binaries still run on CPUs without these instructions.
//
// Codegen-safety discipline (same as kernel_avx2.cpp): everything this TU
// emits is either an exported avx512_* entry point or an internal-linkage
// helper; it instantiates no shared inline library function, so the linker
// can never pick an EVEX-encoded COMDAT copy of a function that non-AVX-512
// code paths also call. Fixed-point arrays are seen only as their raw ints
// (no Fixed member is ever instantiated here); the tier-1 test
// kernel_tus_define_no_weak_symbols checks the object with nm.
//
// The kernels are kernel_mac_body.h's single body — the same one the AVX2 TU
// instantiates — over the zmm traits below, with the same 1-lane scalar
// tail. FLOAT16 rounds to half after every multiply and add via VCVTPS2PH
// (zmm form, AVX512F) with a mask-guarded fixup to the canonical quiet NaN
// (sign | 0x7E00). A lane's chain never mixes with another lane's, so
// widening 8 -> 16 lanes cannot change a single output bit relative to
// scalar or AVX2. Fixed point is exact int64 arithmetic per lane (see
// FxI64x8) over the same packed copy, 8 lanes wide, without the per-tap
// saturation on calls whose activations a weight-sum bound clears.
#include "dnnfi/dnn/kernels/kernel_avx512.h"

#if defined(DNNFI_ENABLE_AVX512_KERNELS)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

#include "dnnfi/dnn/kernels/kernel_mac_body.h"

// The NaN lanes of cvtps_ph_canon512, rewritten to the canonical NaN. Out of
// line and cold so the MAC loops stay small enough to unroll.
[[gnu::noinline, gnu::cold]] __m256i canon_nans512(__m512 v, __m256i h,
                                                   __mmask16 nan_mask) noexcept {
  alignas(64) float fv[16];
  alignas(32) std::uint16_t hb[16];
  _mm512_store_ps(fv, v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hb), h);
  for (int l = 0; l < 16; ++l)
    if ((nan_mask >> l) & 1) hb[l] = canonical_nan_bits(fv[l]);
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(hb));
}

// The 16-lane converts use the all-ones maskz forms: the unmasked ones trip
// GCC 12's -Wuninitialized inside avx512fintrin.h (their _mm512_undefined_*
// source) once inlined into the grouped conv body, and compute the same.
inline __m512 cvtph_ps512(__m256i h) noexcept {
  return _mm512_maskz_cvtph_ps(0xFFFF, h);
}

// float -> half bits, 16 lanes, canonical-NaN rule.
inline __m256i cvtps_ph_canon512(__m512 v) noexcept {
  const __m256i h = _mm512_maskz_cvtps_ph(0xFFFF, v, kRne);
  const __mmask16 nan_mask = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  return nan_mask == 0 ? h : canon_nans512(v, h, nan_mask);
}

// ---------------------------------------------------------------------------
// Vector traits for kernel_mac_body.h.
// ---------------------------------------------------------------------------

struct F32x16 {
  using T = float;
  using Acc = __m512;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kGroup = 3;
  static Acc zero() noexcept { return _mm512_setzero_ps(); }
  static __m512 load_w(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static __m512 splat(float a) noexcept { return _mm512_set1_ps(a); }
  static Acc mac(Acc acc, __m512 w, __m512 a) noexcept {
    return _mm512_add_ps(acc, _mm512_mul_ps(w, a));
  }
  static __m512 finish(Acc acc, const float* bias) noexcept {
    return _mm512_add_ps(acc, _mm512_loadu_ps(bias));
  }
  static void store(__m512 r, float* lanes) noexcept {
    _mm512_storeu_ps(lanes, r);
  }
  static void relu_block(const float* in, float* out) noexcept {
    const __m512 v = _mm512_loadu_ps(in);
    const __mmask16 m = _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
    _mm512_storeu_ps(out, _mm512_maskz_mov_ps(m, v));
  }
};

struct F64x8 {
  using T = double;
  using Acc = __m512d;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kGroup = 3;
  static Acc zero() noexcept { return _mm512_setzero_pd(); }
  static __m512d load_w(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static __m512d splat(double a) noexcept { return _mm512_set1_pd(a); }
  static Acc mac(Acc acc, __m512d w, __m512d a) noexcept {
    return _mm512_add_pd(acc, _mm512_mul_pd(w, a));
  }
  static __m512d finish(Acc acc, const double* bias) noexcept {
    return _mm512_add_pd(acc, _mm512_loadu_pd(bias));
  }
  static void store(__m512d r, double* lanes) noexcept {
    _mm512_storeu_pd(lanes, r);
  }
  static void relu_block(const double* in, double* out) noexcept {
    const __m512d v = _mm512_loadu_pd(in);
    const __mmask8 m = _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ);
    _mm512_storeu_pd(out, _mm512_maskz_mov_pd(m, v));
  }
};

// Half bits: the accumulator stays 16 half values and every product and sum
// is rounded through cvtps_ph_canon512.
struct F16x16 {
  using T = std::uint16_t;
  using Acc = __m256i;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kGroup = 3;
  static __m256i load(const T* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Acc zero() noexcept { return _mm256_setzero_si256(); }
  static __m512 load_w(const T* p) noexcept { return cvtph_ps512(load(p)); }
  static __m512 splat(T a) noexcept { return _mm512_set1_ps(_cvtsh_ss(a)); }
  static Acc mac(Acc acc, __m512 w, __m512 a) noexcept {
    const __m256i prod = cvtps_ph_canon512(_mm512_mul_ps(w, a));
    return cvtps_ph_canon512(
        _mm512_add_ps(cvtph_ps512(acc), cvtph_ps512(prod)));
  }
  static __m256i finish(Acc acc, const T* bias) noexcept {
    return cvtps_ph_canon512(
        _mm512_add_ps(cvtph_ps512(acc), cvtph_ps512(load(bias))));
  }
  static void store(__m256i r, T* lanes) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), r);
  }
  // Compare on the converted floats, keep the original 16 bits.
  static void relu_block(const T* in, T* out) noexcept {
    const __m256i h = load(in);
    const __mmask16 m = _mm512_cmp_ps_mask(cvtph_ps512(h),
                                           _mm512_setzero_ps(), _CMP_GT_OQ);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_maskz_mov_epi16(m, h));
  }
};

// Fixed<W,F> raw ints, 8 lanes of int64. Each tap is Fixed::operator* then
// operator+ exactly: VPMULDQ's 32x32->64 product (|p| <= 2^62), +2^(F-1),
// VPSRAQ by F, saturate; then the sum, saturated again. The arithmetic is
// exact integer math, so every lane is bit-identical to the scalar chain.
// kSat = false drops both saturations. That body runs only on a call whose
// activations all lie within the geometry's act_limit (kernels.h), which
// proves every rounded product and prefix sum stays inside [RawMin, RawMax]:
// each saturation is then the identity and the unsaturated chain equals the
// saturated one bit for bit (its |sum| < 2^31 cannot overflow int64).
// finish and store saturate in both bodies.
// A tap's weights are 8 contiguous raw ints of the packed copy, so load_w
// is the same sign-extending load as the bias and relu input (16 bytes for
// the 16-bit type, 32 for the 32-bit ones).
// The unmasked cvt / min / max / mul / shift forms trip GCC 12's
// -Wuninitialized inside avx512fintrin.h (their _mm512_undefined_* source;
// mul and shift only in -Os builds); the all-ones maskz forms compute the
// same thing.
template <class Fx, bool kSat>
struct FxI64x8 {
  using T = typename Fx::raw_type;
  using Acc = __m512i;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kGroup = 3;
  static constexpr __mmask8 kAll = 0xFF;
  static constexpr int kF = Fx::kFraction;

  static __m512i sat(__m512i v) noexcept {
    return _mm512_maskz_min_epi64(
        kAll, _mm512_maskz_max_epi64(kAll, v, _mm512_set1_epi64(Fx::kRawMin)),
        _mm512_set1_epi64(Fx::kRawMax));
  }
  // 8 contiguous raw values, sign-extended.
  static __m512i load(const T* p) noexcept {
    if constexpr (sizeof(T) == 4)
      return _mm512_maskz_cvtepi32_epi64(
          kAll, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
    else
      return _mm512_maskz_cvtepi16_epi64(
          kAll, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Acc zero() noexcept { return _mm512_setzero_si512(); }
  static __m512i load_w(const T* p) noexcept { return load(p); }
  static __m512i splat(T a) noexcept { return _mm512_set1_epi64(a); }
  static Acc mac(Acc acc, __m512i w, __m512i a) noexcept {
    const __m512i p = _mm512_add_epi64(_mm512_maskz_mul_epi32(kAll, w, a),
                                       _mm512_set1_epi64(1LL << (kF - 1)));
    const __m512i q = _mm512_maskz_srai_epi64(kAll, p, kF);
    if constexpr (kSat)
      return sat(_mm512_add_epi64(acc, sat(q)));
    else
      return _mm512_add_epi64(acc, q);
  }
  static __m512i finish(Acc acc, const T* bias) noexcept {
    return sat(_mm512_add_epi64(acc, load(bias)));
  }
  static void store(__m512i r, T* lanes) noexcept {
    if constexpr (sizeof(T) == 4)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes),
                          _mm512_maskz_cvtsepi64_epi32(kAll, r));
    else
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes),
                       _mm512_maskz_cvtsepi64_epi16(kAll, r));
  }
  static void relu_block(const T* in, T* out) noexcept {
    store(_mm512_maskz_max_epi64(kAll, load(in), _mm512_setzero_si512()),
          out);
  }
};

// The AVX-512 TU sees Fixed arrays only as their raw ints, so it never
// instantiates a Fixed member function (see the codegen-safety note above).
template <class Fx>
const typename Fx::raw_type* raw(const Fx* p) noexcept {
  return reinterpret_cast<const typename Fx::raw_type*>(p);
}
template <class Fx>
typename Fx::raw_type* raw(Fx* p) noexcept {
  return reinterpret_cast<typename Fx::raw_type*>(p);
}

// The largest |a| of n raw activations: a plain loop the compiler
// vectorises, so the scans below test the limit once per run.
template <class Raw>
std::uint64_t max_abs(const Raw* p, std::size_t n) noexcept {
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = p[i];
    const auto a = static_cast<std::uint64_t>(v < 0 ? -v : v);
    m = a > m ? a : m;
  }
  return m;
}

// Whether every raw activation a conv call over region r reads lies within
// g.act_limit: all in_c channels over input rows [y0*s - pad,
// (y1-1)*s + k - pad) and the same columns, clipped to the input. Stops
// after the first input row holding an |a| above the limit; false when the
// limit is 0 (unproven) or the region is empty.
template <class Raw>
bool conv_within_limit(const ConvGeom& g, const Region& r,
                       const Raw* in) noexcept {
  if (g.act_limit == 0 || r.y0 >= r.y1 || r.x0 >= r.x1) return false;
  const auto lim = static_cast<std::uint64_t>(g.act_limit);
  // [first, end) of the input coordinates outputs [o0, o1) read.
  const auto first = [&](std::size_t o0) {
    return o0 * g.stride > g.pad ? o0 * g.stride - g.pad : 0;
  };
  const auto end = [&](std::size_t o1, std::size_t n) {
    const std::size_t e = (o1 - 1) * g.stride + g.k;
    return e > g.pad + n ? n : (e > g.pad ? e - g.pad : 0);
  };
  const std::size_t iy0 = first(r.y0), iy1 = end(r.y1, g.in_h);
  const std::size_t ix0 = first(r.x0), ix1 = end(r.x1, g.in_w);
  if (ix0 >= ix1) return true;  // every column read is padding
  for (std::size_t c = 0; c < g.in_c; ++c)
    for (std::size_t y = iy0; y < iy1; ++y)
      if (max_abs(in + (c * g.in_h + y) * g.in_w + ix0, ix1 - ix0) > lim)
        return false;
  return true;
}

// The FC counterpart: all `in` activations, 64 at a time.
template <class Raw>
bool fc_within_limit(const FcGeom& g, const Raw* in) noexcept {
  if (g.act_limit == 0) return false;
  const auto lim = static_cast<std::uint64_t>(g.act_limit);
  for (std::size_t i = 0; i < g.in; i += 64)
    if (max_abs(in + i, g.in - i < 64 ? g.in - i : 64) > lim) return false;
  return true;
}

}  // namespace

void avx512_conv_float(const ConvGeom& g, const Region& r, const float* in,
                       const float* w, const float* wp, const float* bias,
                       float* out) {
  conv_lanes<F32x16>(g, r, in, w, wp, bias, out);
}

void avx512_fc_float(const FcGeom& g, const float* in, const float* w,
                     const float* wp, const float* bias, float* out) {
  fc_lanes<F32x16>(g, in, w, wp, bias, out);
}

void avx512_relu_float(const float* in, float* out, std::size_t n) {
  relu_lanes<F32x16>(in, out, n);
}

void avx512_conv_double(const ConvGeom& g, const Region& r, const double* in,
                        const double* w, const double* wp,
                        const double* bias, double* out) {
  conv_lanes<F64x8>(g, r, in, w, wp, bias, out);
}

void avx512_fc_double(const FcGeom& g, const double* in, const double* w,
                      const double* wp, const double* bias, double* out) {
  fc_lanes<F64x8>(g, in, w, wp, bias, out);
}

void avx512_relu_double(const double* in, double* out, std::size_t n) {
  relu_lanes<F64x8>(in, out, n);
}

void avx512_conv_half(const ConvGeom& g, const Region& r,
                      const numeric::Half* in, const numeric::Half* w,
                      const numeric::Half* wp, const numeric::Half* bias,
                      numeric::Half* out) {
  conv_lanes<F16x16>(g, r, bits(in), bits(w), bits(wp), bits(bias),
                     bits(out));
}

void avx512_fc_half(const FcGeom& g, const numeric::Half* in,
                    const numeric::Half* w, const numeric::Half* wp,
                    const numeric::Half* bias, numeric::Half* out) {
  fc_lanes<F16x16>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx512_relu_half(const numeric::Half* in, numeric::Half* out,
                      std::size_t n) {
  relu_lanes<F16x16>(bits(in), bits(out), n);
}

// Conv and FC pick the unsaturated lane-block body per call when the input
// window is within act_limit; the 1-lane tail rows always saturate.
#define DNNFI_AVX512_FIXED(Fx, name)                                         \
  void avx512_conv_##name(const ConvGeom& g, const Region& r,                \
                          const numeric::Fx* in, const numeric::Fx* w,       \
                          const numeric::Fx* wp, const numeric::Fx* bias,    \
                          numeric::Fx* out) {                                \
    if (conv_within_limit(g, r, raw(in)))                                    \
      conv_lanes<FxI64x8<numeric::Fx, false>, ScalarLane<numeric::Fx>>(      \
          g, r, raw(in), raw(w), raw(wp), raw(bias), raw(out));              \
    else                                                                     \
      conv_lanes<FxI64x8<numeric::Fx, true>, ScalarLane<numeric::Fx>>(       \
          g, r, raw(in), raw(w), raw(wp), raw(bias), raw(out));              \
  }                                                                          \
  void avx512_fc_##name(const FcGeom& g, const numeric::Fx* in,              \
                        const numeric::Fx* w, const numeric::Fx* wp,         \
                        const numeric::Fx* bias, numeric::Fx* out) {         \
    if (fc_within_limit(g, raw(in)))                                         \
      fc_lanes<FxI64x8<numeric::Fx, false>, ScalarLane<numeric::Fx>>(        \
          g, raw(in), raw(w), raw(wp), raw(bias), raw(out));                 \
    else                                                                     \
      fc_lanes<FxI64x8<numeric::Fx, true>, ScalarLane<numeric::Fx>>(         \
          g, raw(in), raw(w), raw(wp), raw(bias), raw(out));                 \
  }                                                                          \
  void avx512_relu_##name(const numeric::Fx* in, numeric::Fx* out,           \
                          std::size_t n) {                                   \
    relu_lanes<FxI64x8<numeric::Fx, true>, ScalarLane<numeric::Fx>>(         \
        raw(in), raw(out), n);                                               \
  }

DNNFI_AVX512_FIXED(Fx32r26, fx32r26)
DNNFI_AVX512_FIXED(Fx32r10, fx32r10)
DNNFI_AVX512_FIXED(Fx16r10, fx16r10)
#undef DNNFI_AVX512_FIXED

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
