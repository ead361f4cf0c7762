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
//   T, kLanes                    element type (std::uint16_t = Half bits,
//                                the raw int for Fixed<W,F>)
//   kGroup                       lane-blocks the conv body runs per pass,
//                                sized to the register file (see below)
//   Acc, zero()                  per-lane accumulator
//   load_w(const T* p)           one tap's weights for the kLanes rows: the
//                                kLanes contiguous values at p
//   splat(T)                     one activation broadcast to every lane
//   mac(acc, w, a)               acc + w * a as a separate multiply then add
//                                (Half: rounded to half after each; Fixed:
//                                rounded and shifted after each, and
//                                saturated after each unless the trait is
//                                FxI64x8<Fx, false>, which a call runs only
//                                when the weight-sum bound of kernels.h
//                                proves no saturation can fire)
//   finish(acc, const T* bias)   trailing bias add (and rounding)
//   store(result, T* lanes)      kLanes contiguous outputs
//   relu_block(const T*, T*)     relu over kLanes contiguous elements
// so each lane runs exactly the scalar reference's accumulation chain.
//
// Weights are the pack_rows copy (kernels.h): a tap's kLanes weights are
// contiguous, the next tap kLanes further on, and block b starts at
// b * kLanes * row (row = kernel volume for conv, `in` for fc). For a
// 1-lane trait that layout is the OIHW / fc-row array itself.
//
// The conv body computes one output Region (kernels.h). It walks the
// region's lane-blocks kGroup at a time and keeps kChains of its pixels in
// flight per group: kGroup x kChains independent accumulator chains, each
// tap's kGroup weight loads shared by the pixels and each pixel's
// activation (bounds check, load, splat) shared by the blocks. Chains never
// read each other's accumulators, so the grouping only reorders independent
// work: every output is still its own chain, bit for bit, whatever box or
// group holds it. kGroup is 3 on every SIMD trait (3 x 4 accumulators plus
// 3 weight vectors and the activation fit 16 ymm and leave zmm headroom)
// and 1 on the 1-lane traits; DESIGN.md §10 has the measurements.
//
// Channels of the region outside its full lane-blocks run the same body
// through a 1-lane trait S on the row-major weights: channel c's tail is
// the body on w + c*kvol. S is one of the ScalarLane traits below unless a
// TU names its own (the avx512fp16 set's native half lane). conv_channels
// makes that split; a TU with a block body of its own (the avx512fp16
// stride-1 pair conv) passes it in, conv_lanes passes conv_blocks.
//
// The single-chain entries (kernels.h ChainFn / ChainPairFn) run one chain
// over gathered taps through a 1-lane trait S that also provides
//   enter(T) / leave(Acc)        the accumulator into and out of Acc
//   same(Acc, Acc)               whether two accumulators leave as the
//                                same bits
// leave runs only after a tap, so a call over no taps returns the bits it
// was given.
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
  static constexpr std::size_t kGroup = 1;
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
  static constexpr std::size_t kGroup = 1;
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
  static Acc enter(T v) noexcept { return v; }
  static T leave(Acc acc) noexcept { return acc; }
  static bool same(Acc a, Acc b) noexcept { return a == b; }
};

/// 1-lane trait for Fixed<W,F> raw ints: Fixed::operator* and operator+ on
/// the raw values in int64 — exact product, +2^(F-1), arithmetic shift by F,
/// saturate; then sum, saturate — without instantiating any Fixed member.
template <int W, int F>
struct ScalarLane<numeric::Fixed<W, F>> {
  using T = typename numeric::Fixed<W, F>::raw_type;
  using Acc = std::int64_t;
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kGroup = 1;
  static constexpr std::int64_t kMin = numeric::Fixed<W, F>::kRawMin;
  static constexpr std::int64_t kMax = numeric::Fixed<W, F>::kRawMax;
  static std::int64_t sat(std::int64_t v) noexcept {
    return v < kMin ? kMin : (v > kMax ? kMax : v);
  }
  static Acc zero() noexcept { return 0; }
  static std::int64_t load_w(const T* p) noexcept { return *p; }
  static std::int64_t splat(T a) noexcept { return a; }
  static Acc mac(Acc acc, std::int64_t w, std::int64_t a) noexcept {
    const std::int64_t product =
        sat((w * a + (std::int64_t{1} << (F - 1))) >> F);
    return sat(acc + product);
  }
  static T finish(Acc acc, const T* bias) noexcept {
    return static_cast<T>(sat(acc + *bias));
  }
  static void store(T r, T* lanes) noexcept { *lanes = r; }
  static void relu_block(const T* in, T* out) noexcept {
    *out = (*in > 0) ? *in : T{0};
  }
};

/// ConvGeom::steps() restated with internal linkage: an unoptimized build
/// would otherwise emit a weak copy of the shared inline member in this TU.
inline std::size_t kvol(const ConvGeom& g) noexcept {
  return g.in_c * g.k * g.k;
}

/// Output pixels conv_pixels keeps in flight per lane-block, one
/// independent accumulator chain each. A Half tap is a ~20-cycle serial
/// chain (cvtph -> add -> cvtps_ph), so one chain leaves the SIMD units
/// idle; kChains pixels times the trait's kGroup blocks keep up to 12 in
/// flight. Eight pixels measured no faster than four at one block per pass.
constexpr std::size_t kChains = 4;

/// P consecutive pixels q0 .. q0+P-1 of the box-local flattened pixel order
/// of region `r` (pixel q sits at row r.y0 + q / width, column
/// r.x0 + q % width, so a group may wrap a row of the box) of B lane-blocks:
/// block b's weights at wb + b * kvol * kLanes, its bias at bb + b * kLanes,
/// its outputs at ob + b * kLanes * out_h * out_w. One accumulator chain per
/// (block, pixel); each tap loads the B weight vectors once and each
/// pixel's activation once (bounds check, load, splat), then feeds that
/// activation to the pixel's B chains. Every chain is exactly the scalar
/// reference's — same (ci, ky, kx) tap order, same mac — and no chain ever
/// reads another's accumulator, so interleaving them cannot change a bit.
template <class V, std::size_t B, std::size_t P>
void conv_pixels(const ConvGeom& g, const Region& r, const typename V::T* in,
                 const typename V::T* wb, const typename V::T* bb,
                 typename V::T* ob, std::size_t q0) {
  using T = typename V::T;
  constexpr std::size_t L = V::kLanes;
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const std::size_t oplane = g.out_h * g.out_w;
  const std::size_t width = r.x1 - r.x0;
  const std::size_t bstride = kvol(g) * L;
  std::ptrdiff_t y0[P], x0[P];
  std::size_t opix[P];
  typename V::Acc acc[B][P];
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t oy = r.y0 + (q0 + p) / width;
    const std::size_t ox = r.x0 + (q0 + p) % width;
    y0[p] = static_cast<std::ptrdiff_t>(oy * g.stride) - pad;
    x0[p] = static_cast<std::ptrdiff_t>(ox * g.stride) - pad;
    opix[p] = oy * g.out_w + ox;
    for (std::size_t b = 0; b < B; ++b) acc[b][p] = V::zero();
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
        decltype(V::load_w(wt)) wv[B];
#pragma GCC unroll 4
        for (std::size_t b = 0; b < B; ++b)
          wv[b] = V::load_w(wt + b * bstride);
#pragma GCC unroll 8  // keeps acc[][] in registers
        for (std::size_t p = 0; p < P; ++p) {
          const std::ptrdiff_t ix = x0[p] + static_cast<std::ptrdiff_t>(kx);
          const auto a = V::splat(
              (irow[p] && ix >= 0 && ix < in_w) ? irow[p][ix] : T{});
#pragma GCC unroll 4
          for (std::size_t b = 0; b < B; ++b)
            acc[b][p] = V::mac(acc[b][p], wv[b], a);
        }
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t p = 0; p < P; ++p) {
      alignas(64) T lane[L];
      V::store(V::finish(acc[b][p], bb + b * L), lane);
      T* const o = ob + b * L * oplane + opix[p];
      for (std::size_t l = 0; l < L; ++l) o[l * oplane] = lane[l];
    }
}

/// The box's pixels for B lane-blocks (layout as for conv_pixels): kChains
/// at a time, the last count % kChains one at a time.
template <class V, std::size_t B>
void conv_group(const ConvGeom& g, const Region& r, const typename V::T* in,
                const typename V::T* wb, const typename V::T* bb,
                typename V::T* ob) {
  const std::size_t count = (r.y1 - r.y0) * (r.x1 - r.x0);
  std::size_t q = 0;
  for (; q + kChains <= count; q += kChains)
    conv_pixels<V, B, kChains>(g, r, in, wb, bb, ob, q);
  for (; q < count; ++q) conv_pixels<V, B, 1>(g, r, in, wb, bb, ob, q);
}

/// conv_group over the last `n` < B blocks: the remainder group.
template <class V, std::size_t B>
void conv_rest(const ConvGeom& g, const Region& r, const typename V::T* in,
               const typename V::T* wb, const typename V::T* bb,
               typename V::T* ob, std::size_t n) {
  if constexpr (B > 1) {
    if (n == B - 1) return conv_group<V, B - 1>(g, r, in, wb, bb, ob);
    conv_rest<V, B - 1>(g, r, in, wb, bb, ob, n);
  }
}

/// Conv over the pixels of region `r` for `blocks` lane-blocks of
/// V::kLanes output channels: `w` in the packed layout, `bias` and `out`
/// starting at the first block's channel (r's channel range is the
/// caller's). The blocks run V::kGroup at a time, then one remainder group
/// of blocks % kGroup. Padded taps multiply a zero activation, so NaN/Inf
/// weights propagate as in the scalar reference.
template <class V>
void conv_blocks(const ConvGeom& g, const Region& r, const typename V::T* in,
                 const typename V::T* w, const typename V::T* bias,
                 typename V::T* out, std::size_t blocks) {
  constexpr std::size_t L = V::kLanes;
  constexpr std::size_t G = V::kGroup;
  const std::size_t oplane = g.out_h * g.out_w;
  std::size_t b = 0;
  for (; b + G <= blocks; b += G)
    conv_group<V, G>(g, r, in, w + b * kvol(g) * L, bias + b * L,
                     out + b * L * oplane);
  conv_rest<V, G>(g, r, in, w + b * kvol(g) * L, bias + b * L,
                  out + b * L * oplane, blocks - b);
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

/// The body of a ConvFn whose lane-blocks are L channels wide: calls
/// `blocks(b0, b1)` for the blocks [b0, b1) that lie wholly inside r's
/// channel range (when there are any), and runs the region's other channels
/// from the row-major `w` through the 1-lane trait S (Fixed traits name
/// theirs: the raw int alone does not carry F). For the full region that is
/// every full block, then the out_c % L remainder rows.
template <std::size_t L, class S, class Blocks>
void conv_channels(const ConvGeom& g, const Region& r,
                   const typename S::T* in, const typename S::T* w,
                   const typename S::T* bias, typename S::T* out,
                   Blocks&& blocks) {
  if (r.c0 >= r.c1 || r.y0 >= r.y1 || r.x0 >= r.x1) return;
  const std::size_t oplane = g.out_h * g.out_w;
  const auto tail = [&](std::size_t c0, std::size_t c1) {
    conv_blocks<S>(g, r, in, w + c0 * kvol(g), bias + c0, out + c0 * oplane,
                   c1 - c0);
  };
  const std::size_t b0 = (r.c0 + L - 1) / L;  // first block inside r
  const std::size_t b1 = r.c1 / L;            // one past the last
  if (b0 >= b1) {
    tail(r.c0, r.c1);
  } else {
    tail(r.c0, b0 * L);
    blocks(b0, b1);
    tail(b1 * L, r.c1);
  }
  // GCC 12 leaves some of these returns (a tail call into the 1-lane body,
  // __m256h code, any -O1 or -Os build) without VZEROUPPER; the callers are
  // legacy-SSE code.
  _mm256_zeroupper();
}

/// A ConvFn: conv_channels with the full lane-blocks run by conv_blocks<V>
/// from the packed copy `wp` (never dereferenced when no such block exists).
template <class V, class S = ScalarLane<typename V::T>>
void conv_lanes(const ConvGeom& g, const Region& r, const typename V::T* in,
                const typename V::T* w, const typename V::T* wp,
                const typename V::T* bias, typename V::T* out) {
  constexpr std::size_t L = V::kLanes;
  const std::size_t oplane = g.out_h * g.out_w;
  conv_channels<L, S>(g, r, in, w, bias, out,
                      [&](std::size_t b0, std::size_t b1) {
                        conv_blocks<V>(g, r, in, wp + b0 * L * kvol(g),
                                       bias + b0 * L, out + b0 * L * oplane,
                                       b1 - b0);
                      });
}

/// A full FcFn; weights and S as for conv_lanes.
template <class V, class S = ScalarLane<typename V::T>>
void fc_lanes(const FcGeom& g, const typename V::T* in,
              const typename V::T* w, const typename V::T* wp,
              const typename V::T* bias, typename V::T* out) {
  const std::size_t blocks = g.out / V::kLanes;
  const std::size_t done = blocks * V::kLanes;
  fc_blocks<V>(g, in, wp, bias, out, blocks);
  fc_blocks<S>(g, in, w + done * g.in, bias + done, out + done,
               g.out - done);
  // As for conv_lanes: -O1 / -Os builds of GCC 12 return without VZEROUPPER.
  _mm256_zeroupper();
}

/// A full EltwiseFn (relu): kLanes-wide blocks, then a 1-lane tail.
template <class V, class S = ScalarLane<typename V::T>>
void relu_lanes(const typename V::T* in, typename V::T* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) V::relu_block(in + i, out + i);
  for (; i < n; ++i) S::relu_block(in + i, out + i);
  _mm256_zeroupper();  // as for fc_lanes
}

/// A ChainFn over the 1-lane trait S.
template <class S>
void chain_lane(const typename S::T* w, const typename S::T* a, std::size_t n,
                typename S::T* acc) {
  if (n == 0) return;
  typename S::Acc s = S::enter(*acc);
  for (std::size_t i = 0; i < n; ++i)
    s = S::mac(s, S::load_w(w + i), S::splat(a[i]));
  *acc = S::leave(s);
}

/// A ChainPairFn over the 1-lane trait S: both chains take each tap's
/// operands from one load, and stop after the first tap that leaves them
/// S::same.
template <class S>
std::size_t chain_pair_lane(const typename S::T* w, const typename S::T* a,
                            std::size_t n, typename S::T* acc,
                            typename S::T* gold) {
  if (*acc == *gold) return 0;
  if (n == 0) return 1;
  typename S::Acc f = S::enter(*acc), g = S::enter(*gold);
  std::size_t k = 1;
  for (; k <= n; ++k) {
    const auto wv = S::load_w(w + k - 1);
    const auto av = S::splat(a[k - 1]);
    f = S::mac(f, wv, av);
    g = S::mac(g, wv, av);
    if (S::same(f, g)) break;
  }
  *acc = S::leave(f);
  *gold = S::leave(g);
  return k;
}
