// Native AVX512-FP16 Half MAC kernels: half outputs computed with VMULPH /
// VADDPH instead of the F16C float round trip of kernel_avx512.cpp.
// Compiled with the avx512 TU's flags plus -mavx512fp16, keeping
// -ffp-contract=off so a mul_ph + add_ph pair never fuses into VFMADD*PH
// (src/CMakeLists.txt); entered only behind the cpu_has_avx512_kernel_bundle
// and cpu_has_avx512fp16 runtime probes.
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
// Two conv bodies, both over the avx512 set's 16-lane packed weight copy:
//   pairs    stride 1 (every AlexNet-S conv but conv1, every NiN-S and
//            ConvNet conv). The call stages the region's input window once
//            into a zero-padded stack tile, then each zmm holds one
//            lane-block for two horizontally adjacent outputs: lane 2j is
//            channel j of output x, lane 2j + 1 channel j of output x + 1.
//            Per tap the activation pair is one VPBROADCASTD from the tile
//            (no bounds check: padding is staged zeros), each block's 16
//            weights are widened to 32 lanes by one VPERMW shared by every
//            pair in flight, and each (block, pair) takes one VMULPH and
//            one VADDPH. Each lane is still exactly one output's chain: the
//            same (ci, ky, kx) order, add(acc, mul(w, a)), a padded tap
//            multiplying a +0 activation, the bias add and the rewrite at
//            the end. An odd-width row's last pair has a spare partner that
//            reads the tile's spare column and is never stored.
//   lanes    any other stride, a window too wide for the tile even for one
//            output pair, and a box one output wide: kernel_mac_body.h's
//            conv_lanes over 16 lanes in a __m256h (F16x16Native), one
//            VPBROADCASTW per pixel tap.
// The remainder channels outside a full lane-block, fc's remainder rows and
// the single chains run one native lane (H1Native), by the same argument.
#include "dnnfi/dnn/kernels/kernel_avx512.h"

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)

#include <immintrin.h>

#include <algorithm>
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
  static constexpr std::size_t kGroup = 3;
  static Acc zero() noexcept { return _mm256_setzero_ph(); }
  static __m256h load_w(const T* p) noexcept {
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
    const __m256h r = _mm256_add_ph(acc, load_w(bias));
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

// One native binary16 lane: the 1-lane trait of the remainder channels and
// of the single chains. leave() is the NaN rewrite finish() does for the
// lanes, once per output or chain call; same() compares after it, so a
// chain pair stops at the tap where the F16C path's two accumulators first
// hold the same bits.
struct H1Native {
  using T = std::uint16_t;
  using Acc = _Float16;
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kGroup = 1;
  static Acc zero() noexcept { return 0; }
  static Acc enter(T v) noexcept { return __builtin_bit_cast(_Float16, v); }
  static _Float16 load_w(const T* p) noexcept { return enter(*p); }
  static _Float16 splat(T a) noexcept { return enter(a); }
  static Acc mac(Acc acc, _Float16 w, _Float16 a) noexcept {
    return acc + w * a;
  }
  static T leave(Acc acc) noexcept {
    const auto h = __builtin_bit_cast(T, acc);
    return (h & 0x7FFFU) > 0x7C00U ? static_cast<T>((h & 0x8000U) | 0x7E00U)
                                   : h;
  }
  static bool same(Acc f, Acc g) noexcept { return leave(f) == leave(g); }
  static T finish(Acc acc, const T* bias) noexcept {
    return leave(acc + enter(*bias));
  }
  static void store(T r, T* lanes) noexcept { *lanes = r; }
};

/// Halves of the stack tile a stride-1 call stages its input window into
/// (16 KiB). A region whose window does not fit runs in bands that do; a
/// call whose window for one output pair, in_c x k x (k + 1), does not fit
/// runs conv_lanes instead.
constexpr std::size_t kTile = 8192;

/// Output pairs pair_group keeps in flight per lane-block: 3 blocks x 4
/// pairs = 12 accumulators, plus 3 weight vectors, the activation pairs and
/// the widening index, within the 32 zmm.
constexpr std::size_t kPairs = 4;

/// The zero-padded input window of one band (a box of a stride-1 conv
/// region): tile[(ci * rows + ty) * cols + tx] holds input (ci, y0 - pad +
/// ty, x0 - pad + tx), or +0 outside the input. `cols` covers the taps of
/// an even number of outputs per row, so an odd-width band has one spare
/// column for its last pair's partner.
struct Window {
  const std::uint16_t* tile;
  std::size_t rows, cols;
};

/// Tile columns of a band `width` outputs wide.
std::size_t window_cols(const ConvGeom& g, std::size_t width) {
  return (width + 1) / 2 * 2 + g.k - 1;
}

Window stage(const ConvGeom& g, const Region& band, const std::uint16_t* in,
             std::uint16_t* tile) {
  const Window t{tile, band.y1 - band.y0 + g.k - 1,
                 window_cols(g, band.x1 - band.x0)};
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto cols = static_cast<std::ptrdiff_t>(t.cols);
  const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(band.x0) - pad;
  const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(band.y0) - pad;
  // Tile columns [lo, hi) and rows [top, bottom) lie inside the input; the
  // rest is padding.
  const std::ptrdiff_t lo = std::min(cols, std::max<std::ptrdiff_t>(0, -x0));
  const std::ptrdiff_t hi = std::max(
      lo, std::min(cols, static_cast<std::ptrdiff_t>(g.in_w) - x0));
  const auto rows = static_cast<std::ptrdiff_t>(t.rows);
  const std::ptrdiff_t top = std::min(rows, std::max<std::ptrdiff_t>(0, -y0));
  const std::ptrdiff_t bottom = std::max(
      top, std::min(rows, static_cast<std::ptrdiff_t>(g.in_h) - y0));
  const auto span = [](std::ptrdiff_t a, std::ptrdiff_t b) {  // bits [a, b)
    return a >= b ? __mmask32{0}
                  : static_cast<__mmask32>((~0ULL >> (64 - (b - a))) << a);
  };
  const __m512i zero = _mm512_setzero_si512();
  const std::size_t row_bytes = g.in_w * sizeof(*tile);
  // 32 columns at a time: a masked load reads only the input columns
  // (masked-out lanes are zero and never touch memory), a masked store
  // writes exactly the chunk's columns of the row.
  for (std::ptrdiff_t c = 0; c < cols; c += 32) {
    const std::ptrdiff_t n = std::min<std::ptrdiff_t>(32, cols - c);
    const __mmask32 keep = span(0, n);
    const __mmask32 load =
        span(std::max(lo, c) - c, std::max(std::min(hi, c + n), c) - c);
    // Lane 0 of a chunk's load is input column x0 + c, which may lie before
    // the row (or the input): address arithmetic only, never dereferenced.
    const std::uintptr_t first =
        reinterpret_cast<std::uintptr_t>(in) +
        static_cast<std::uintptr_t>(
            (y0 + top) * static_cast<std::ptrdiff_t>(g.in_w) + x0 + c) *
            sizeof(*tile);
    std::uint16_t* dst = tile + c;
    for (std::size_t ci = 0; ci < g.in_c; ++ci) {
      std::uintptr_t src = first + ci * g.in_h * row_bytes;
      std::ptrdiff_t ty = 0;
      for (; ty < top; ++ty, dst += t.cols)
        _mm512_mask_storeu_epi16(dst, keep, zero);
      for (; ty < bottom; ++ty, dst += t.cols, src += row_bytes)
        _mm512_mask_storeu_epi16(
            dst, keep,
            _mm512_maskz_loadu_epi16(load,
                                     reinterpret_cast<const void*>(src)));
      for (; ty < rows; ++ty, dst += t.cols)
        _mm512_mask_storeu_epi16(dst, keep, zero);
    }
  }
  return t;
}

/// VPERMW index: lanes 2j and 2j + 1 take lane j.
alignas(64) constexpr std::uint16_t kWidenIdx[32] = {
    0, 0, 1, 1, 2,  2,  3,  3,  4,  4,  5,  5,  6,  6,  7,  7,
    8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15};

/// 16 contiguous halves at p, each in two adjacent lanes.
__m512h widen(__m512i idx, const std::uint16_t* p) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm512_castsi512_ph(
      _mm512_permutexvar_epi16(idx, _mm512_castsi256_si512(v)));
}

/// The two halves at p in every lane pair.
__m512h pair_at(const std::uint16_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm512_castsi512_ph(_mm512_set1_epi32(static_cast<int>(v)));
}

/// P consecutive pairs q0 .. q0 + P - 1 of `band`'s pair order (pair q
/// sits at band row q / per_row, columns x0 + 2 (q % per_row) and the one
/// after; a group may wrap a row) for B lane-blocks laid out as for
/// conv_pixels. One accumulator chain per (block, pair) lane; each tap
/// widens the B weight vectors once and loads each pair once.
template <std::size_t B, std::size_t P>
void conv_pairs(const ConvGeom& g, const Window& t, const Region& band,
                const std::uint16_t* wb, const std::uint16_t* bb,
                std::uint16_t* ob, std::size_t q0) {
  constexpr std::size_t L = 16;
  const std::size_t width = band.x1 - band.x0;
  const std::size_t per_row = (width + 1) / 2;
  const std::size_t oplane = g.out_h * g.out_w;
  const std::size_t bstride = kvol(g) * L;
  const __m512i idx = _mm512_load_si512(kWidenIdx);
  std::size_t off[P], opix[P];
  bool both[P];
  __m512h acc[B][P];
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t q = q0 + p;
    const std::size_t py = q / per_row, px = 2 * (q % per_row);
    off[p] = py * t.cols + px;
    opix[p] = (band.y0 + py) * g.out_w + band.x0 + px;
    both[p] = px + 1 < width;
    for (std::size_t b = 0; b < B; ++b) acc[b][p] = _mm512_setzero_ph();
  }
  const std::uint16_t* wt = wb;
  for (std::size_t ci = 0; ci < g.in_c; ++ci)
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      const std::uint16_t* const row = t.tile + (ci * t.rows + ky) * t.cols;
      for (std::size_t kx = 0; kx < g.k; ++kx, wt += L) {
        __m512h wv[B];
#pragma GCC unroll 4
        for (std::size_t b = 0; b < B; ++b)
          wv[b] = widen(idx, wt + b * bstride);
#pragma GCC unroll 4
        for (std::size_t p = 0; p < P; ++p) {
          const __m512h a = pair_at(row + kx + off[p]);
#pragma GCC unroll 4
          for (std::size_t b = 0; b < B; ++b)
            acc[b][p] = _mm512_add_ph(acc[b][p], _mm512_mul_ph(wv[b], a));
        }
      }
    }
  for (std::size_t b = 0; b < B; ++b) {
    const __m512h bias = widen(idx, bb + b * L);
    for (std::size_t p = 0; p < P; ++p) {
      // The bias add, then the chain's one canonical-NaN rewrite.
      const __m512i h = _mm512_castph_si512(_mm512_add_ph(acc[b][p], bias));
      const __m512i sign = _mm512_and_si512(h, _mm512_set1_epi16(-0x8000));
      const __mmask32 nan = _mm512_cmpgt_epi16_mask(
          _mm512_andnot_si512(sign, h), _mm512_set1_epi16(0x7C00));
      alignas(64) std::uint16_t lane[2 * L];
      _mm512_store_si512(
          lane, _mm512_mask_mov_epi16(
                    h, nan, _mm512_or_si512(sign, _mm512_set1_epi16(0x7E00))));
      // Lanes 2j, 2j + 1 are outputs x, x + 1 of channel j: adjacent in
      // the CHW output.
      std::uint16_t* const o = ob + b * L * oplane + opix[p];
      if (both[p]) {
        for (std::size_t l = 0; l < L; ++l)
          std::memcpy(o + l * oplane, lane + 2 * l, 2 * sizeof(*o));
      } else {
        for (std::size_t l = 0; l < L; ++l) o[l * oplane] = lane[2 * l];
      }
    }
  }
}

/// Every pair of `band` for the B lane-blocks from block b (packed weights
/// `wp`, `bias` and `out` at block 0): kPairs at a time, the last
/// count % kPairs one at a time (a lone pair's B chains come close to the
/// port-bound rate of a full group, and repeat no work).
template <std::size_t B>
void pair_group(const ConvGeom& g, const Window& t, const Region& band,
                const std::uint16_t* wp, const std::uint16_t* bias,
                std::uint16_t* out, std::size_t b) {
  constexpr std::size_t L = 16;
  const std::uint16_t* const wb = wp + b * L * kvol(g);
  const std::uint16_t* const bb = bias + b * L;
  std::uint16_t* const ob = out + b * L * g.out_h * g.out_w;
  const std::size_t count =
      (band.y1 - band.y0) * ((band.x1 - band.x0 + 1) / 2);
  std::size_t q = 0;
  for (; q + kPairs <= count; q += kPairs)
    conv_pairs<B, kPairs>(g, t, band, wb, bb, ob, q);
  for (; q < count; ++q) conv_pairs<B, 1>(g, t, band, wb, bb, ob, q);
}

/// Whether region r of g runs by pairs: stride 1, one output pair's window
/// fits the tile, and the box is at least two outputs wide (in a
/// one-wide box every pair would carry a spare partner, half its lanes).
bool pairs_fit(const ConvGeom& g, const Region& r) {
  return g.stride == 1 && g.in_c > 0 && r.x1 - r.x0 >= 2 &&
         g.in_c * g.k * window_cols(g, 2) <= kTile;
}

/// The lane-blocks [b0, b1) of region r by pairs (pairs_fit(g, r) holds):
/// r in bands whose window fits the tile (the whole region when it fits,
/// else rows, else one row in even-width column spans), each staged once
/// and run for every block, 3 blocks at a time.
void conv_pair_blocks(const ConvGeom& g, const Region& r,
                      const std::uint16_t* in, const std::uint16_t* wp,
                      const std::uint16_t* bias, std::uint16_t* out,
                      std::size_t b0, std::size_t b1) {
  alignas(64) std::uint16_t tile[kTile];
  std::size_t bw = r.x1 - r.x0;
  std::size_t bh = kTile / (g.in_c * window_cols(g, bw));
  if (bh >= g.k) {
    bh -= g.k - 1;
  } else {
    bh = 1;
    bw = std::min(bw, (kTile / (g.in_c * g.k) - (g.k - 1)) & ~std::size_t{1});
  }
  for (std::size_t y = r.y0; y < r.y1; y += bh)
    for (std::size_t x = r.x0; x < r.x1; x += bw) {
      const Region band{r.c0, r.c1, y, std::min(y + bh, r.y1),
                        x, std::min(x + bw, r.x1)};
      const Window t = stage(g, band, in, tile);
      std::size_t b = b0;
      for (; b + 3 <= b1; b += 3) pair_group<3>(g, t, band, wp, bias, out, b);
      if (b1 - b == 2) pair_group<2>(g, t, band, wp, bias, out, b);
      if (b1 - b == 1) pair_group<1>(g, t, band, wp, bias, out, b);
    }
}

}  // namespace

void avx512fp16_conv_half(const ConvGeom& g, const Region& r,
                          const numeric::Half* in, const numeric::Half* w,
                          const numeric::Half* wp, const numeric::Half* bias,
                          numeric::Half* out) {
  if (!pairs_fit(g, r))
    return conv_lanes<F16x16Native, H1Native>(g, r, bits(in), bits(w),
                                              bits(wp), bits(bias), bits(out));
  conv_channels<16, H1Native>(g, r, bits(in), bits(w), bits(bias), bits(out),
                              [&](std::size_t b0, std::size_t b1) {
                                conv_pair_blocks(g, r, bits(in), bits(wp),
                                                 bits(bias), bits(out), b0,
                                                 b1);
                              });
}

// GCC 12 returns from __m256h code without VZEROUPPER (conv_channels and
// fc_lanes clear it), and the callers are baseline code running legacy-SSE
// scalar math: with the upper halves left dirty every such instruction pays
// a merge penalty (ConvNet incremental replay ~8x slower). test_kernels'
// KernelsReturnWithUpperVectorStateClear checks every kernel.
void avx512fp16_fc_half(const FcGeom& g, const numeric::Half* in,
                        const numeric::Half* w, const numeric::Half* wp,
                        const numeric::Half* bias, numeric::Half* out) {
  fc_lanes<F16x16Native, H1Native>(g, bits(in), bits(w), bits(wp),
                                   bits(bias), bits(out));
}

void avx512fp16_chain_half(const numeric::Half* w, const numeric::Half* a,
                           std::size_t n, numeric::Half* acc) {
  chain_lane<H1Native>(bits(w), bits(a), n, bits(acc));
}

std::size_t avx512fp16_chain_pair_half(const numeric::Half* w,
                                       const numeric::Half* a, std::size_t n,
                                       numeric::Half* acc,
                                       numeric::Half* gold) {
  return chain_pair_lane<H1Native>(bits(w), bits(a), n, bits(acc),
                                   bits(gold));
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512FP16_KERNELS
