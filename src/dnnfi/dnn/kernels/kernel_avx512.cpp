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
// FxI64x8) over row-major weights, so it needs no packed copy.
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
  static constexpr bool kRowMajor = false;
  static Acc zero() noexcept { return _mm512_setzero_ps(); }
  static __m512 load_w(const float* p, std::size_t) noexcept {
    return _mm512_loadu_ps(p);
  }
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
  static constexpr bool kRowMajor = false;
  static Acc zero() noexcept { return _mm512_setzero_pd(); }
  static __m512d load_w(const double* p, std::size_t) noexcept {
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
  static constexpr bool kRowMajor = false;
  static __m256i load(const T* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Acc zero() noexcept { return _mm256_setzero_si256(); }
  static __m512 load_w(const T* p, std::size_t) noexcept {
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

// Fixed<W,F> raw ints, 8 lanes of int64. Each tap is Fixed::operator* then
// operator+ exactly: VPMULDQ's 32x32->64 product (|p| <= 2^62), +2^(F-1),
// VPSRAQ by F, saturate; then the sum, saturated again. The arithmetic is
// exact integer math, so every lane is bit-identical to the scalar chain.
// Weights are read row-major through a strided gather (no packed copy).
// The unmasked cvt / min / max forms trip GCC 12's -Wuninitialized inside
// avx512fintrin.h (their _mm512_undefined_* source); the all-ones maskz
// forms compute the same thing.
template <class Fx>
struct FxI64x8 {
  using T = typename Fx::raw_type;
  using Acc = __m512i;
  static constexpr std::size_t kLanes = 8;
  static constexpr bool kRowMajor = true;
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
  // Lane l reads p[l * row]. There is no 16-bit gather: lanes 0-6 gather the
  // dword starting at their element and lane 7 the dword ending at it, so no
  // lane reads outside rows 0..7 of the block; each lane's element is then
  // shifted into the high half and sign-extended down.
  static __m512i load_w(const T* p, std::size_t row) noexcept {
    const __m256i idx = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int>(row)));
    const auto* base = reinterpret_cast<const int*>(p);
    if constexpr (sizeof(T) == 4) {
      return _mm512_maskz_cvtepi32_epi64(
          kAll, _mm256_i32gather_epi32(base, idx, 4));
    } else {
      const __m256i last_back =
          _mm256_sub_epi32(idx, _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 0, 1));
      const __m256i d = _mm256_i32gather_epi32(base, last_back, 2);
      const __m256i hi = _mm256_sllv_epi32(
          d, _mm256_setr_epi32(16, 16, 16, 16, 16, 16, 16, 0));
      return _mm512_maskz_cvtepi32_epi64(kAll, _mm256_srai_epi32(hi, 16));
    }
  }
  static __m512i splat(T a) noexcept { return _mm512_set1_epi64(a); }
  static Acc mac(Acc acc, __m512i w, __m512i a) noexcept {
    const __m512i p = _mm512_add_epi64(_mm512_mul_epi32(w, a),
                                       _mm512_set1_epi64(1LL << (kF - 1)));
    return sat(_mm512_add_epi64(acc, sat(_mm512_srai_epi64(p, kF))));
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

// Fixed point reads row-major weights: the packed pointer is always null.
#define DNNFI_AVX512_FIXED(Fx, name)                                         \
  void avx512_conv_##name(const ConvGeom& g, const numeric::Fx* in,          \
                          const numeric::Fx* w, const numeric::Fx*,          \
                          const numeric::Fx* bias, numeric::Fx* out) {       \
    conv_lanes<FxI64x8<numeric::Fx>, ScalarLane<numeric::Fx>>(               \
        g, raw(in), raw(w), nullptr, raw(bias), raw(out));                   \
  }                                                                          \
  void avx512_fc_##name(const FcGeom& g, const numeric::Fx* in,              \
                        const numeric::Fx* w, const numeric::Fx*,            \
                        const numeric::Fx* bias, numeric::Fx* out) {         \
    fc_lanes<FxI64x8<numeric::Fx>, ScalarLane<numeric::Fx>>(                 \
        g, raw(in), raw(w), nullptr, raw(bias), raw(out));                   \
  }                                                                          \
  void avx512_relu_##name(const numeric::Fx* in, numeric::Fx* out,           \
                          std::size_t n) {                                   \
    relu_lanes<FxI64x8<numeric::Fx>, ScalarLane<numeric::Fx>>(raw(in),       \
                                                              raw(out), n);  \
  }

DNNFI_AVX512_FIXED(Fx32r26, fx32r26)
DNNFI_AVX512_FIXED(Fx32r10, fx32r10)
DNNFI_AVX512_FIXED(Fx16r10, fx16r10)
#undef DNNFI_AVX512_FIXED

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
