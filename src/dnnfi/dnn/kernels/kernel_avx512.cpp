// AVX-512 MAC kernel implementations: 16 float / 8 double / 16 Half outputs
// per lane-block. Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq
// -mf16c and -ffp-contract=off (src/CMakeLists.txt); entered only behind the
// cpu_has_avx512_kernel_bundle runtime probe, so DNNFI-built binaries still
// run on CPUs without these instructions.
//
// Codegen-safety discipline (same as kernel_avx2.cpp): everything this TU
// emits is either an exported avx512_* entry point or an internal-linkage
// helper; it instantiates no shared inline library function, so the linker
// can never pick an EVEX-encoded COMDAT copy of a function that non-AVX-512
// code paths also call.
//
// The kernels are kernel_mac_body.h's single body — the same one the AVX2 TU
// instantiates — over the zmm traits below, with the same 1-lane scalar
// tail. FLOAT16 rounds to half after every multiply and add via VCVTPS2PH
// (zmm form, AVX512F) with a mask-guarded fixup to the canonical quiet NaN
// (sign | 0x7E00). A lane's chain never mixes with another lane's, so
// widening 8 -> 16 lanes cannot change a single output bit relative to
// scalar or AVX2.
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

// float -> half bits, 16 lanes, canonical-NaN rule.
inline __m256i cvtps_ph_canon512(__m512 v) noexcept {
  const __m256i h = _mm512_cvtps_ph(v, kRne);
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
  static Acc zero() noexcept { return _mm512_setzero_pd(); }
  static __m512d load_w(const double* p) noexcept {
    return _mm512_loadu_pd(p);
  }
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
  static __m256i load(const T* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Acc zero() noexcept { return _mm256_setzero_si256(); }
  static __m512 load_w(const T* p) noexcept {
    return _mm512_cvtph_ps(load(p));
  }
  static __m512 splat(T a) noexcept { return _mm512_set1_ps(_cvtsh_ss(a)); }
  static Acc mac(Acc acc, __m512 w, __m512 a) noexcept {
    const __m256i prod = cvtps_ph_canon512(_mm512_mul_ps(w, a));
    return cvtps_ph_canon512(
        _mm512_add_ps(_mm512_cvtph_ps(acc), _mm512_cvtph_ps(prod)));
  }
  static __m256i finish(Acc acc, const T* bias) noexcept {
    return cvtps_ph_canon512(
        _mm512_add_ps(_mm512_cvtph_ps(acc), _mm512_cvtph_ps(load(bias))));
  }
  static void store(__m256i r, T* lanes) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), r);
  }
  // Compare on the converted floats, keep the original 16 bits.
  static void relu_block(const T* in, T* out) noexcept {
    const __m256i h = load(in);
    const __mmask16 m = _mm512_cmp_ps_mask(_mm512_cvtph_ps(h),
                                           _mm512_setzero_ps(), _CMP_GT_OQ);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_maskz_mov_epi16(m, h));
  }
};

}  // namespace

void avx512_conv_float(const ConvGeom& g, const float* in, const float* w,
                       const float* wp, const float* bias, float* out) {
  conv_lanes<F32x16>(g, in, w, wp, bias, out);
}

void avx512_fc_float(const FcGeom& g, const float* in, const float* w,
                     const float* wp, const float* bias, float* out) {
  fc_lanes<F32x16>(g, in, w, wp, bias, out);
}

void avx512_relu_float(const float* in, float* out, std::size_t n) {
  relu_lanes<F32x16>(in, out, n);
}

void avx512_conv_double(const ConvGeom& g, const double* in, const double* w,
                        const double* wp, const double* bias, double* out) {
  conv_lanes<F64x8>(g, in, w, wp, bias, out);
}

void avx512_fc_double(const FcGeom& g, const double* in, const double* w,
                      const double* wp, const double* bias, double* out) {
  fc_lanes<F64x8>(g, in, w, wp, bias, out);
}

void avx512_relu_double(const double* in, double* out, std::size_t n) {
  relu_lanes<F64x8>(in, out, n);
}

void avx512_conv_half(const ConvGeom& g, const numeric::Half* in,
                      const numeric::Half* w, const numeric::Half* wp,
                      const numeric::Half* bias, numeric::Half* out) {
  conv_lanes<F16x16>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
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

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
