// Test helper for test_kernels' FP16 arithmetic check: native AVX512-FP16
// binary16 multiply and add (VMULPH / VADDPH) against the F16C float round
// trip the avx512 Half kernels compute (float op, VCVTPS2PH), both with the
// canonical-NaN rule (a NaN becomes sign | 0x7E00). Compiled with
// -mavx512fp16 (tests/CMakeLists.txt); call only when
// numeric::cpu_has_avx512fp16() holds. Everything but the entry point has
// internal linkage.
#include <immintrin.h>

#include <cstdint>

namespace dnnfi::test {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// The canonical-NaN rule on 16 half bit patterns.
__m256i canon(__m256i h) noexcept {
  const __m256i sign = _mm256_and_si256(h, _mm256_set1_epi16(-0x8000));
  const __mmask16 nan = _mm256_cmpgt_epi16_mask(_mm256_andnot_si256(sign, h),
                                                _mm256_set1_epi16(0x7C00));
  return _mm256_mask_mov_epi16(
      h, nan, _mm256_or_si256(sign, _mm256_set1_epi16(0x7E00)));
}

// VCVTPS2PH, round to nearest even. The all-ones maskz form computes the
// unmasked one without its -O0 sign-conversion warning.
__m256i to_half(__m512 v) noexcept {
  return _mm512_maskz_cvtps_ph(static_cast<__mmask16>(0xFFFF), v, kRne);
}

// One bit pair per 16-bit lane, set where `lanes` is all ones.
unsigned lane_bits(__m256i lanes) noexcept {
  return static_cast<unsigned>(_mm256_movemask_epi8(lanes));
}

// 16-bit lanes where x and y differ after canonicalisation, outside `skip`.
int mismatches(__m256i x, __m256i y, unsigned skip) noexcept {
  const unsigned equal = lane_bits(_mm256_cmpeq_epi16(canon(x), canon(y)));
  return __builtin_popcount(~(equal | skip)) / 2;
}

// The lanes of b that are NaNs of the opposite sign to a NaN a. An add or
// multiply of two NaNs returns whichever operand the compiler put first,
// here as in the kernels: the one hole in the bit-identity contract that
// kernels.h documents, so those pairs are not compared.
unsigned opposite_nan_pairs(__m256i a, __m256i b) noexcept {
  const __m256i sign = _mm256_set1_epi16(-0x8000);
  const __m256i inf = _mm256_set1_epi16(0x7C00);
  const __m256i both_nan = _mm256_and_si256(
      _mm256_cmpgt_epi16(_mm256_andnot_si256(sign, a), inf),
      _mm256_cmpgt_epi16(_mm256_andnot_si256(sign, b), inf));
  const __m256i opposite = _mm256_cmpeq_epi16(
      _mm256_and_si256(_mm256_xor_si256(a, b), sign), sign);
  return lane_bits(_mm256_and_si256(both_nan, opposite));
}

}  // namespace

/// Counts the operand pairs (a, b) whose native product or native sum
/// differs from the F16C round trip, for every a in [a0, a1) and the
/// 65536 / stride values b = a % stride + k * stride, except pairs of NaNs
/// with opposite signs. stride is a power of two no larger than 4096;
/// stride 1 covers every b.
std::uint64_t fp16_native_mismatches(std::uint32_t a0, std::uint32_t a1,
                                     std::uint32_t stride) {
  const __m256i iota = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const std::uint32_t count = 65536 / stride;
  std::uint64_t bad = 0;
  for (std::uint32_t a = a0; a < a1; ++a) {
    const __m256i ah = _mm256_set1_epi16(static_cast<short>(a));
    const __m512 af = _mm512_cvtph_ps(ah);
    for (std::uint32_t k = 0; k < count; k += 16) {
      const __m256i bh = _mm256_add_epi16(
          _mm256_set1_epi16(static_cast<short>(a % stride + k * stride)),
          _mm256_mullo_epi16(iota,
                             _mm256_set1_epi16(static_cast<short>(stride))));
      const __m512 bf = _mm512_cvtph_ps(bh);
      const __m256i mul = _mm256_castph_si256(
          _mm256_mul_ph(_mm256_castsi256_ph(ah), _mm256_castsi256_ph(bh)));
      const __m256i add = _mm256_castph_si256(
          _mm256_add_ph(_mm256_castsi256_ph(ah), _mm256_castsi256_ph(bh)));
      const unsigned skip = opposite_nan_pairs(ah, bh);
      bad += static_cast<std::uint64_t>(
          mismatches(mul, to_half(_mm512_mul_ps(af, bf)), skip) +
          mismatches(add, to_half(_mm512_add_ps(af, bf)), skip));
    }
  }
  return bad;
}

}  // namespace dnnfi::test
