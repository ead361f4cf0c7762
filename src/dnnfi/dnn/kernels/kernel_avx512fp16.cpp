// Native AVX512-FP16 Half MAC kernels: 16 half outputs per lane-block,
// computed with VMULPH / VADDPH instead of the F16C float round trip of
// kernel_avx512.cpp. Compiled with the avx512 TU's flags plus -mavx512fp16,
// keeping -ffp-contract=off so a mul_ph + add_ph pair never fuses into
// VFMADD*PH (src/CMakeLists.txt); entered only behind the
// cpu_has_avx512_kernel_bundle and cpu_has_avx512fp16 runtime probes.
//
// Codegen safety is kernel_avx512.cpp's: everything here is an exported
// avx512fp16_* entry point or has internal linkage (the
// kernel_tus_define_no_weak_symbols test checks this object too).
//
// Why native half arithmetic gives the F16C path's bits, tap for tap:
//   product  a half x half product has at most 22 significant bits, so it
//            is exact in binary32; rounding it once to half is VMULPH.
//   sum      float has 24 >= 2*11 + 2 significand bits, so rounding a sum
//            of two halves to float and then to half never differs from
//            rounding it to half directly, which is VADDPH.
//   modes    FP16 instructions ignore MXCSR.DAZ/FTZ; the F16C path never
//            meets a float denormal (half operands and their products are
//            normal in float), so neither path depends on those bits.
//   NaN      the F16C path rewrites every NaN to the canonical quiet NaN
//            (sign | 0x7E00) after each operation; here that happens once,
//            in finish(). The rewrite keeps only the sign, and an operation
//            with one NaN operand returns that NaN's sign in both paths, so
//            the signs agree at every step and one rewrite at the end gives
//            the same bits. Two NaNs meeting in one add keep whichever
//            operand the compiler put first (the one hole kernels.h
//            documents); when their signs agree, the rewrite hides which.
//            Inf*0 and Inf-Inf give the negative default NaN in half as in
//            float.
// test_fp16_exhaustive checks the first two on the hardware over every
// operand pair (test_kernels over a stride of them), and test_kernels'
// kPayloadNaN season the NaN argument, with one payload NaN per chain
// planted in the inputs or the weights.
//
// Weights come from the avx512 set's 16-lane packed copy; the 1-lane
// remainder channels run kernel_mac_body.h's ScalarLane<std::uint16_t>.
#include "dnnfi/dnn/kernels/kernel_avx512.h"

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

#include "dnnfi/dnn/kernels/kernel_mac_body.h"

// Half bits, 16 lanes of native binary16 arithmetic.
struct F16x16Native {
  using T = std::uint16_t;
  using Acc = __m256h;
  static constexpr std::size_t kLanes = 16;
  static constexpr bool kRowMajor = false;
  static Acc zero() noexcept { return _mm256_setzero_ph(); }
  static __m256h load_w(const T* p, std::size_t) noexcept {
    return _mm256_castsi256_ph(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static __m256h splat(T a) noexcept {
    return _mm256_castsi256_ph(_mm256_set1_epi16(static_cast<short>(a)));
  }
  static Acc mac(Acc acc, __m256h w, __m256h a) noexcept {
    return _mm256_add_ph(acc, _mm256_mul_ph(w, a));
  }
  // The bias add, then the chain's one canonical-NaN rewrite.
  static __m256i finish(Acc acc, const T* bias) noexcept {
    const __m256h r = _mm256_add_ph(acc, load_w(bias, 0));
    const __m256i h = _mm256_castph_si256(r);
    const __m256i sign = _mm256_and_si256(h, _mm256_set1_epi16(-0x8000));
    const __m256i mag = _mm256_andnot_si256(sign, h);
    const __mmask16 nan =
        _mm256_cmpgt_epi16_mask(mag, _mm256_set1_epi16(0x7C00));
    return _mm256_mask_mov_epi16(
        h, nan, _mm256_or_si256(sign, _mm256_set1_epi16(0x7E00)));
  }
  static void store(__m256i r, T* lanes) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), r);
  }
};

}  // namespace

// GCC 12 returns from these without VZEROUPPER, and the callers are
// baseline code running legacy-SSE scalar math: with the upper halves left
// dirty every such instruction pays a merge penalty (ConvNet incremental
// replay ~8x slower). The entry points clear them explicitly;
// test_kernels' KernelsReturnWithUpperVectorStateClear checks every kernel.
void avx512fp16_conv_half(const ConvGeom& g, const Region& r,
                          const numeric::Half* in, const numeric::Half* w,
                          const numeric::Half* wp, const numeric::Half* bias,
                          numeric::Half* out) {
  conv_lanes<F16x16Native>(g, r, bits(in), bits(w), bits(wp), bits(bias),
                           bits(out));
  _mm256_zeroupper();
}

void avx512fp16_fc_half(const FcGeom& g, const numeric::Half* in,
                        const numeric::Half* w, const numeric::Half* wp,
                        const numeric::Half* bias, numeric::Half* out) {
  fc_lanes<F16x16Native>(g, bits(in), bits(w), bits(wp), bits(bias),
                         bits(out));
  _mm256_zeroupper();
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512FP16_KERNELS
