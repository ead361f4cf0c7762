// AVX2/F16C kernel implementations. Compiled with -mavx2 -mf16c and
// -ffp-contract=off (src/CMakeLists.txt); entered only behind the runtime
// cpu_has_avx2 / cpu_has_f16c probes, so DNNFI-built binaries still run on
// CPUs without these instructions.
//
// Codegen-safety discipline (same as simd_convert_f16c.cpp): everything this
// TU emits is either an exported avx2_* entry point or an internal-linkage
// helper. It deliberately instantiates no shared inline library function —
// no Half member calls, no kernel_scalar.h templates, std::memcpy instead of
// std::bit_cast — so the linker can never pick a VEX-encoded COMDAT copy of
// a function that non-AVX2 code paths also call.
//
// The conv / fully-connected / relu kernels are kernel_mac_body.h's single
// body instantiated over the 8-lane float, 4-lane double and 8-lane Half
// traits below; rows past the last full lane-block run the same body through
// its 1-lane scalar traits, and so do the Half single chains. Bit-identity
// strategy: vectorize ACROSS output channels, one output per lane. Each lane
// performs the scalar reference's accumulation chain — same (ci, ky, kx)
// order, separate multiply and add per tap (-ffp-contract=off keeps the
// compiler from contracting the scalar tails), padded taps multiply a zero
// activation so NaN/Inf weights propagate identically. FLOAT16 rounds to
// half after every multiply and every add via VCVTPS2PH with a
// movemask-guarded fixup to the library's canonical quiet NaN
// (sign | 0x7E00), matching Half operator semantics bit-for-bit.
//
// The post-MAC kernels are likewise one body per op: lrn_blocks,
// avgpool_lanes and softmax_lanes run over the LaneIoF32/F64/F16 traits
// (4 double lanes, every type widened exactly), and maxpool_lanes runs over
// the same F32x8/F64x4/F16x8 traits as the MAC body. The avx512 sets share
// these twelve entry points.
#include "dnnfi/dnn/kernels/kernel_avx2.h"

#if defined(DNNFI_ENABLE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

#include "dnnfi/dnn/kernels/kernel_mac_body.h"

// The NaN lanes of cvtps_ph_canon, rewritten to the canonical NaN. Out of
// line and cold so the MAC loops stay small enough to unroll.
[[gnu::noinline, gnu::cold]] __m128i canon_nans(__m256 v, __m128i h,
                                                int nan_mask) noexcept {
  alignas(32) float fv[8];
  alignas(16) std::uint16_t hb[8];
  _mm256_store_ps(fv, v);
  _mm_store_si128(reinterpret_cast<__m128i*>(hb), h);
  for (int l = 0; l < 8; ++l)
    if ((nan_mask >> l) & 1) hb[l] = canonical_nan_bits(fv[l]);
  return _mm_load_si128(reinterpret_cast<const __m128i*>(hb));
}

// float -> half bits, 8 lanes, canonical-NaN rule (the vector f2h).
inline __m128i cvtps_ph_canon(__m256 v) noexcept {
  const __m128i h = _mm256_cvtps_ph(v, kRne);
  const int nan_mask = _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  return nan_mask == 0 ? h : canon_nans(v, h, nan_mask);
}

// ---------------------------------------------------------------------------
// Vector traits for kernel_mac_body.h. Each also carries the maxpool_lanes
// members below the MAC ones:
//   lane_offsets(stride)    the gather operand for lanes `stride` apart
//   gather(p, offsets)      one window tap of kLanes outputs
//   keep_greater(best, v)   per lane v if v > best (ordered compare, so a
//                           NaN never wins), else best
//   greater(a, b)           the scalar `a > b` of the column tail
// ---------------------------------------------------------------------------

struct F32x8 {
  using T = float;
  using Acc = __m256;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kGroup = 3;
  static Acc zero() noexcept { return _mm256_setzero_ps(); }
  static __m256 load_w(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static __m256 splat(float a) noexcept { return _mm256_set1_ps(a); }
  static Acc mac(Acc acc, __m256 w, __m256 a) noexcept {
    return _mm256_add_ps(acc, _mm256_mul_ps(w, a));
  }
  static __m256 finish(Acc acc, const float* bias) noexcept {
    return _mm256_add_ps(acc, _mm256_loadu_ps(bias));
  }
  static void store(__m256 r, float* lanes) noexcept {
    _mm256_storeu_ps(lanes, r);
  }
  static void relu_block(const float* in, float* out) noexcept {
    const __m256 v = _mm256_loadu_ps(in);
    _mm256_storeu_ps(
        out, _mm256_and_ps(v, _mm256_cmp_ps(v, _mm256_setzero_ps(),
                                            _CMP_GT_OQ)));
  }
  static __m256i lane_offsets(std::size_t stride) noexcept {
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(static_cast<int>(stride)));
  }
  static __m256 gather(const float* p, __m256i offsets) noexcept {
    return _mm256_i32gather_ps(p, offsets, 4);
  }
  static __m256 keep_greater(__m256 best, __m256 v) noexcept {
    return _mm256_blendv_ps(best, v, _mm256_cmp_ps(v, best, _CMP_GT_OQ));
  }
  static bool greater(float a, float b) noexcept { return a > b; }
};

struct F64x4 {
  using T = double;
  using Acc = __m256d;
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kGroup = 3;
  static Acc zero() noexcept { return _mm256_setzero_pd(); }
  static __m256d load_w(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static __m256d splat(double a) noexcept { return _mm256_set1_pd(a); }
  static Acc mac(Acc acc, __m256d w, __m256d a) noexcept {
    return _mm256_add_pd(acc, _mm256_mul_pd(w, a));
  }
  static __m256d finish(Acc acc, const double* bias) noexcept {
    return _mm256_add_pd(acc, _mm256_loadu_pd(bias));
  }
  static void store(__m256d r, double* lanes) noexcept {
    _mm256_storeu_pd(lanes, r);
  }
  static void relu_block(const double* in, double* out) noexcept {
    const __m256d v = _mm256_loadu_pd(in);
    _mm256_storeu_pd(
        out, _mm256_and_pd(v, _mm256_cmp_pd(v, _mm256_setzero_pd(),
                                            _CMP_GT_OQ)));
  }
  static __m128i lane_offsets(std::size_t stride) noexcept {
    return _mm_mullo_epi32(_mm_setr_epi32(0, 1, 2, 3),
                           _mm_set1_epi32(static_cast<int>(stride)));
  }
  static __m256d gather(const double* p, __m128i offsets) noexcept {
    return _mm256_i32gather_pd(p, offsets, 8);
  }
  static __m256d keep_greater(__m256d best, __m256d v) noexcept {
    return _mm256_blendv_pd(best, v, _mm256_cmp_pd(v, best, _CMP_GT_OQ));
  }
  static bool greater(double a, double b) noexcept { return a > b; }
};

// Half bits: the accumulator stays 8 half values and every product and sum
// is rounded through cvtps_ph_canon.
struct F16x8 {
  using T = std::uint16_t;
  using Acc = __m128i;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kGroup = 3;
  static __m128i load(const T* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static Acc zero() noexcept { return _mm_setzero_si128(); }
  static __m256 load_w(const T* p) noexcept { return _mm256_cvtph_ps(load(p)); }
  static __m256 splat(T a) noexcept { return _mm256_set1_ps(_cvtsh_ss(a)); }
  static Acc mac(Acc acc, __m256 w, __m256 a) noexcept {
    const __m128i prod = cvtps_ph_canon(_mm256_mul_ps(w, a));
    return cvtps_ph_canon(
        _mm256_add_ps(_mm256_cvtph_ps(acc), _mm256_cvtph_ps(prod)));
  }
  static __m128i finish(Acc acc, const T* bias) noexcept {
    return cvtps_ph_canon(
        _mm256_add_ps(_mm256_cvtph_ps(acc), _mm256_cvtph_ps(load(bias))));
  }
  static void store(__m128i r, T* lanes) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), r);
  }
  // relu and maxpool compare on the converted floats and keep the original
  // 16 bits: the ordered a > b per lane, narrowed to a 16-bit lane mask.
  static __m128i gt_mask(__m256 a, __m256 b) noexcept {
    const __m256i m32 = _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GT_OQ));
    return _mm_packs_epi32(_mm256_castsi256_si128(m32),
                           _mm256_extracti128_si256(m32, 1));
  }
  static void relu_block(const T* in, T* out) noexcept {
    const __m128i h = load(in);
    const __m128i keep = gt_mask(_mm256_cvtph_ps(h), _mm256_setzero_ps());
    store(_mm_and_si128(h, keep), out);
  }
  // No 16-bit hardware gather exists: compose the lanes on the stack.
  static std::size_t lane_offsets(std::size_t stride) noexcept {
    return stride;
  }
  static __m128i gather(const T* p, std::size_t stride) noexcept {
    alignas(16) T b[8];
    for (std::size_t l = 0; l < 8; ++l) b[l] = p[l * stride];
    return load(b);
  }
  static __m128i keep_greater(__m128i best, __m128i v) noexcept {
    return _mm_blendv_epi8(
        best, v, gt_mask(_mm256_cvtph_ps(v), _mm256_cvtph_ps(best)));
  }
  static bool greater(T a, T b) noexcept {
    return _cvtsh_ss(a) > _cvtsh_ss(b);
  }
};

// ---------------------------------------------------------------------------
// Post-MAC kernels. Same discipline: TU-local helpers only, <cmath> calls
// restricted to the extern libm entry points (exp, pow) — no std:: inline
// templates (std::min/std::isfinite/...) that a non-AVX TU might also
// instantiate.
// ---------------------------------------------------------------------------

// float -> half bits, 4 lanes in the low half of the result, canonical-NaN
// rule (the 4-wide sibling of cvtps_ph_canon).
inline __m128i cvtps_ph_canon4(__m128 v) noexcept {
  __m128i h = _mm_cvtps_ph(v, kRne);
  const int nan_mask =
      _mm_movemask_ps(_mm_cmp_ps(v, v, _CMP_UNORD_Q)) & 0xF;
  if (nan_mask != 0) {
    alignas(16) float fv[4];
    alignas(16) std::uint16_t hb[8];
    _mm_store_ps(fv, v);
    _mm_store_si128(reinterpret_cast<__m128i*>(hb), h);
    for (int l = 0; l < 4; ++l)
      if ((nan_mask >> l) & 1) hb[l] = canonical_nan_bits(fv[l]);
    h = _mm_load_si128(reinterpret_cast<const __m128i*>(hb));
  }
  return h;
}

// Local restatement of kernels::lrn_pow (kernel_scalar.h): pow(base, beta)
// with the exact pow(1.0, beta) == 1.0 shortcut and a previous-base memo.
// pow is deterministic, so memoization never changes a value.
inline double lrn_pow_local(double base, double beta, double& memo_base,
                            double& memo_pow) noexcept {
  if (base == 1.0) return 1.0;
  if (base == memo_base) return memo_pow;
  memo_base = base;
  memo_pow = std::pow(base, beta);
  return memo_pow;
}

// Local restatement of kernels::softmax_shifted_exp over an already
// converted double. mx is always finite here, so the shift is never NaN.
inline double shifted_exp_local(double v, double mx) noexcept {
  if (v != v) v = -__builtin_inf();
  const double sh = v - mx;
  return std::exp(sh < 700.0 ? sh : 700.0);
}

// Per-type lane I/O for the double-precision post-MAC internals: 4
// contiguous elements <-> one __m256d, 4 elements `stride` apart -> one
// __m256d, plus the single-element forms the scalar tails use. Conversions
// are exactly numeric_traits<T>'s to_double/from_double: float<->double
// casts are the hardware converts, Half goes half->float->double in and
// double->float->half (canonical NaN) out.
struct LaneIoF32 {
  using T = float;
  static __m256d load4(const float* p) noexcept {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static void store4(__m256d v, float* p) noexcept {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  static __m256d gather4(const float* p, std::size_t stride) noexcept {
    const int s = static_cast<int>(stride);
    return _mm256_cvtps_pd(
        _mm_i32gather_ps(p, _mm_setr_epi32(0, s, 2 * s, 3 * s), 4));
  }
  static double load1(const float* p) noexcept {
    return static_cast<double>(*p);
  }
  static void store1(double v, float* p) noexcept {
    *p = static_cast<float>(v);
  }
};

struct LaneIoF64 {
  using T = double;
  static __m256d load4(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store4(__m256d v, double* p) noexcept {
    _mm256_storeu_pd(p, v);
  }
  static __m256d gather4(const double* p, std::size_t stride) noexcept {
    const int s = static_cast<int>(stride);
    return _mm256_i32gather_pd(p, _mm_setr_epi32(0, s, 2 * s, 3 * s), 8);
  }
  static double load1(const double* p) noexcept { return *p; }
  static void store1(double v, double* p) noexcept { *p = v; }
};

struct LaneIoF16 {
  using T = std::uint16_t;
  static __m256d load4(const std::uint16_t* p) noexcept {
    const __m128i h =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_cvtps_pd(_mm_cvtph_ps(h));
  }
  static void store4(__m256d v, std::uint16_t* p) noexcept {
    const __m128i h = cvtps_ph_canon4(_mm256_cvtpd_ps(v));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), h);
  }
  static __m256d gather4(const std::uint16_t* p, std::size_t stride) noexcept {
    alignas(8) std::uint16_t b[4];
    for (std::size_t l = 0; l < 4; ++l) b[l] = p[l * stride];
    return load4(b);
  }
  static double load1(const std::uint16_t* p) noexcept {
    return static_cast<double>(_cvtsh_ss(*p));
  }
  static void store1(double v, std::uint16_t* p) noexcept {
    *p = f2h(static_cast<float>(v));
  }
};

// Scalar LRN over spatial positions [p0, p1), output channels r.c0..r.c1:
// the tail/fallback path. Fresh per-output window sums in low-to-high
// channel order — identical to kernels::scalar_lrn (buffering never changed
// a bit, see kernel_scalar.h).
template <class Io>
void lrn_ref_positions(const LrnGeom& g, const Region& r,
                       const typename Io::T* in, typename Io::T* out,
                       std::size_t p0, std::size_t p1) {
  const std::size_t plane = g.h * g.w;
  const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
  const double an = g.alpha / static_cast<double>(g.size);
  for (std::size_t p = p0; p < p1; ++p) {
    double memo_base = __builtin_nan("");
    double memo_pow = 0.0;
    for (std::size_t c = r.c0; c < r.c1; ++c) {
      const std::ptrdiff_t clo =
          (static_cast<std::ptrdiff_t>(c) - half) > 0
              ? static_cast<std::ptrdiff_t>(c) - half
              : 0;
      const std::ptrdiff_t chi =
          (static_cast<std::ptrdiff_t>(c) + half) <
                  static_cast<std::ptrdiff_t>(g.c) - 1
              ? static_cast<std::ptrdiff_t>(c) + half
              : static_cast<std::ptrdiff_t>(g.c) - 1;
      double ss = 0;
      for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
        const double v =
            Io::load1(in + static_cast<std::size_t>(cc) * plane + p);
        ss += v * v;
      }
      const double base = g.k + an * ss;
      const double denom = lrn_pow_local(base, g.beta, memo_base, memo_pow);
      const double v = Io::load1(in + c * plane + p);
      Io::store1(v / denom, out + c * plane + p);
    }
  }
}

// Vectorized LRN: 4 consecutive spatial positions per lane-block, over the
// region's runs of consecutive positions (one run when the region spans
// whole rows, else one per row); each run's last run % 4 positions, and
// every position past kMaxC channels, take the scalar path. Each lane's
// window sum runs in the scalar order (clo..chi adds from a zero
// accumulator), base = k + an*ss is one multiply + one add, and the
// per-element pow stays a scalar libm call with a per-lane memo.
template <class Io>
void lrn_blocks(const LrnGeom& g, const Region& r, const typename Io::T* in,
                typename Io::T* out) {
  constexpr std::size_t kMaxC = 512;
  if (r.c0 >= r.c1 || r.y0 >= r.y1 || r.x0 >= r.x1) return;
  const std::size_t plane = g.h * g.w;
  const bool whole_rows = r.x0 == 0 && r.x1 == g.w;
  const std::size_t runs = whole_rows ? 1 : r.y1 - r.y0;
  const std::size_t run_len = whole_rows ? (r.y1 - r.y0) * g.w : r.x1 - r.x0;
  const bool vector = g.c <= kMaxC;
  const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
  const double an = g.alpha / static_cast<double>(g.size);
  // Channels any output window in r.c0..r.c1 reads.
  const std::size_t lo = r.c0 > g.size / 2 ? r.c0 - g.size / 2 : 0;
  const std::size_t hi = r.c1 + g.size / 2 < g.c ? r.c1 + g.size / 2 : g.c;
  const __m256d kv = _mm256_set1_pd(g.k);
  const __m256d anv = _mm256_set1_pd(an);
  alignas(32) double vals[kMaxC * 4];
  alignas(32) double sqs[kMaxC * 4];
  for (std::size_t k = 0; k < runs; ++k) {
    const std::size_t p0 = (r.y0 + k) * g.w + r.x0;
    const std::size_t p1 = p0 + run_len;
    std::size_t p = p0;
    for (; vector && p + 4 <= p1; p += 4) {
      for (std::size_t c = lo; c < hi; ++c) {
        const __m256d v = Io::load4(in + c * plane + p);
        _mm256_store_pd(vals + c * 4, v);
        _mm256_store_pd(sqs + c * 4, _mm256_mul_pd(v, v));
      }
      alignas(32) double memo_base[4];
      alignas(32) double memo_pow[4] = {0, 0, 0, 0};
      for (int l = 0; l < 4; ++l) memo_base[l] = __builtin_nan("");
      for (std::size_t c = r.c0; c < r.c1; ++c) {
        const std::ptrdiff_t clo =
            (static_cast<std::ptrdiff_t>(c) - half) > 0
                ? static_cast<std::ptrdiff_t>(c) - half
                : 0;
        const std::ptrdiff_t chi =
            (static_cast<std::ptrdiff_t>(c) + half) <
                    static_cast<std::ptrdiff_t>(g.c) - 1
                ? static_cast<std::ptrdiff_t>(c) + half
                : static_cast<std::ptrdiff_t>(g.c) - 1;
        __m256d ss = _mm256_setzero_pd();
        for (std::ptrdiff_t cc = clo; cc <= chi; ++cc)
          ss = _mm256_add_pd(
              ss, _mm256_load_pd(sqs + static_cast<std::size_t>(cc) * 4));
        const __m256d base = _mm256_add_pd(kv, _mm256_mul_pd(anv, ss));
        alignas(32) double bl[4];
        alignas(32) double dl[4];
        _mm256_store_pd(bl, base);
        for (int l = 0; l < 4; ++l)
          dl[l] = lrn_pow_local(bl[l], g.beta, memo_base[l], memo_pow[l]);
        const __m256d outv =
            _mm256_div_pd(_mm256_load_pd(vals + c * 4), _mm256_load_pd(dl));
        Io::store4(outv, out + c * plane + p);
      }
    }
    if (p < p1) lrn_ref_positions<Io>(g, r, in, out, p, p1);
  }
}

// Max pooling over the outputs in `r`, across output columns, kLanes
// windows per lane-block: each lane is seeded from its window's first
// element and folds the taps in the scalar (ky, kx) order with
// keep_greater, so NaNs lose and the first maximum wins exactly as in the
// scalar `if (v > best)`. Columns past the last full block run that scalar
// loop.
template <class P>
void maxpool_lanes(const PoolGeom& g, const Region& r, const typename P::T* in,
                   typename P::T* out) {
  using T = typename P::T;
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  const auto offsets = P::lane_offsets(g.stride);
  for (std::size_t c = r.c0; c < r.c1; ++c) {
    const T* const ic = in + c * iplane;
    T* const oc = out + c * oplane;
    for (std::size_t oy = r.y0; oy < r.y1; ++oy) {
      const T* const iwin = ic + oy * g.stride * g.in_w;
      T* const orow = oc + oy * g.out_w;
      std::size_t ox = r.x0;
      for (; ox + P::kLanes <= r.x1; ox += P::kLanes) {
        const T* const base = iwin + ox * g.stride;
        auto best = P::gather(base, offsets);
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const T* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx)
            best = P::keep_greater(best, P::gather(irow + kx, offsets));
        }
        P::store(best, orow + ox);
      }
      for (; ox < r.x1; ++ox) {
        const T* const base = iwin + ox * g.stride;
        T best = base[0];
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const T* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx)
            if (P::greater(irow[kx], best)) best = irow[kx];
        }
        orow[ox] = best;
      }
    }
  }
}

// Global average pooling, four channels per pass: each lane is the scalar
// sequential double sum over its plane from a zero accumulator, then one
// multiply by 1/plane. Leftover channels run that scalar loop.
template <class Io>
void avgpool_lanes(const typename Io::T* in, typename Io::T* out,
                   std::size_t channels, std::size_t plane) {
  const double inv = 1.0 / static_cast<double>(plane);
  const __m256d invv = _mm256_set1_pd(inv);
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < plane; ++i)
      acc = _mm256_add_pd(acc, Io::gather4(in + c * plane + i, plane));
    Io::store4(_mm256_mul_pd(acc, invv), out + c);
  }
  for (; c < channels; ++c) {
    double s = 0;
    for (std::size_t i = 0; i < plane; ++i) s += Io::load1(in + c * plane + i);
    Io::store1(s * inv, out + c);
  }
}

constexpr std::size_t kSoftmaxStack = 1024;

// Softmax in the scalar reference's three passes. The finite-max pass
// replaces NaN and +/-Inf lanes by -Inf before a 4-lane double max over the
// widened inputs; widening and max are exact, so any association gives the
// scalar "max over finite elements" for every type (only the sign of a zero
// maximum may differ, which exp(v - mx) cannot see; see scalar_softmax in
// kernel_scalar.h). The exp/sum pass stays scalar; the normalize pass divides four
// lanes at a time when the exps are buffered.
template <class Io>
void softmax_lanes(const typename Io::T* in, typename Io::T* out,
                   std::size_t n) {
  const __m256d ninf = _mm256_set1_pd(-__builtin_inf());
  __m256d run = ninf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = Io::load4(in + i);
    const __m256d fin = _mm256_cmp_pd(_mm256_sub_pd(v, v),
                                      _mm256_setzero_pd(), _CMP_EQ_OQ);
    run = _mm256_max_pd(run, _mm256_blendv_pd(ninf, v, fin));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, run);
  double mx = -__builtin_inf();
  for (const double l : lane)
    if (l > mx) mx = l;
  for (; i < n; ++i) {
    const double v = Io::load1(in + i);
    if (__builtin_isfinite(v) && v > mx) mx = v;
  }
  if (!__builtin_isfinite(mx)) mx = 0;
  const bool buffered = n <= kSoftmaxStack;
  double buf[kSoftmaxStack];
  double sum = 0;
  for (i = 0; i < n; ++i) {
    const double e = shifted_exp_local(Io::load1(in + i), mx);
    if (buffered) buf[i] = e;
    sum += e;
  }
  i = 0;
  if (sum > 0 && buffered) {
    const __m256d sv = _mm256_set1_pd(sum);
    for (; i + 4 <= n; i += 4)
      Io::store4(_mm256_div_pd(_mm256_loadu_pd(buf + i), sv), out + i);
  }
  for (; i < n; ++i) {
    const double e =
        buffered ? buf[i] : shifted_exp_local(Io::load1(in + i), mx);
    Io::store1(sum > 0 ? e / sum : 0.0, out + i);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// MAC entry points: kernel_mac_body.h over this TU's traits.
// ---------------------------------------------------------------------------

void avx2_conv_float(const ConvGeom& g, const Region& r, const float* in,
                     const float* w, const float* wp, const float* bias,
                     float* out) {
  conv_lanes<F32x8>(g, r, in, w, wp, bias, out);
}

void avx2_fc_float(const FcGeom& g, const float* in, const float* w,
                   const float* wp, const float* bias, float* out) {
  fc_lanes<F32x8>(g, in, w, wp, bias, out);
}

void avx2_relu_float(const float* in, float* out, std::size_t n) {
  relu_lanes<F32x8>(in, out, n);
}

void avx2_conv_double(const ConvGeom& g, const Region& r, const double* in,
                      const double* w, const double* wp, const double* bias,
                      double* out) {
  conv_lanes<F64x4>(g, r, in, w, wp, bias, out);
}

void avx2_fc_double(const FcGeom& g, const double* in, const double* w,
                    const double* wp, const double* bias, double* out) {
  fc_lanes<F64x4>(g, in, w, wp, bias, out);
}

void avx2_relu_double(const double* in, double* out, std::size_t n) {
  relu_lanes<F64x4>(in, out, n);
}

void avx2_conv_half(const ConvGeom& g, const Region& r,
                    const numeric::Half* in, const numeric::Half* w,
                    const numeric::Half* wp, const numeric::Half* bias,
                    numeric::Half* out) {
  conv_lanes<F16x8>(g, r, bits(in), bits(w), bits(wp), bits(bias),
                    bits(out));
}

void avx2_fc_half(const FcGeom& g, const numeric::Half* in,
                  const numeric::Half* w, const numeric::Half* wp,
                  const numeric::Half* bias, numeric::Half* out) {
  fc_lanes<F16x8>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx2_relu_half(const numeric::Half* in, numeric::Half* out,
                    std::size_t n) {
  relu_lanes<F16x8>(bits(in), bits(out), n);
}

void avx2_chain_half(const numeric::Half* w, const numeric::Half* a,
                     std::size_t n, numeric::Half* acc) {
  chain_lane<ScalarLane<std::uint16_t>>(bits(w), bits(a), n, bits(acc));
}

std::size_t avx2_chain_pair_half(const numeric::Half* w,
                                 const numeric::Half* a, std::size_t n,
                                 numeric::Half* acc, numeric::Half* gold) {
  return chain_pair_lane<ScalarLane<std::uint16_t>>(bits(w), bits(a), n,
                                                    bits(acc), bits(gold));
}

// ---------------------------------------------------------------------------
// Post-MAC entry points.
// ---------------------------------------------------------------------------

void avx2_lrn_float(const LrnGeom& g, const Region& r, const float* in,
                    float* out) {
  lrn_blocks<LaneIoF32>(g, r, in, out);
}

void avx2_lrn_double(const LrnGeom& g, const Region& r, const double* in,
                     double* out) {
  lrn_blocks<LaneIoF64>(g, r, in, out);
}

void avx2_lrn_half(const LrnGeom& g, const Region& r, const numeric::Half* in,
                   numeric::Half* out) {
  lrn_blocks<LaneIoF16>(g, r, bits(in), bits(out));
}

void avx2_maxpool_float(const PoolGeom& g, const Region& r, const float* in,
                        float* out) {
  maxpool_lanes<F32x8>(g, r, in, out);
}

void avx2_maxpool_double(const PoolGeom& g, const Region& r, const double* in,
                         double* out) {
  maxpool_lanes<F64x4>(g, r, in, out);
}

void avx2_maxpool_half(const PoolGeom& g, const Region& r,
                       const numeric::Half* in, numeric::Half* out) {
  maxpool_lanes<F16x8>(g, r, bits(in), bits(out));
}

void avx2_avgpool_float(const float* in, float* out, std::size_t channels,
                        std::size_t plane) {
  avgpool_lanes<LaneIoF32>(in, out, channels, plane);
}

void avx2_avgpool_double(const double* in, double* out, std::size_t channels,
                         std::size_t plane) {
  avgpool_lanes<LaneIoF64>(in, out, channels, plane);
}

void avx2_avgpool_half(const numeric::Half* in, numeric::Half* out,
                       std::size_t channels, std::size_t plane) {
  avgpool_lanes<LaneIoF16>(bits(in), bits(out), channels, plane);
}

void avx2_softmax_float(const float* in, float* out, std::size_t n) {
  softmax_lanes<LaneIoF32>(in, out, n);
}

void avx2_softmax_double(const double* in, double* out, std::size_t n) {
  softmax_lanes<LaneIoF64>(in, out, n);
}

void avx2_softmax_half(const numeric::Half* in, numeric::Half* out,
                       std::size_t n) {
  softmax_lanes<LaneIoF16>(bits(in), bits(out), n);
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX2_KERNELS
