// Scalar reference kernels — the always-correct ground truth every SIMD set
// is tested bit-identical against (see kernels.h for the contract).
//
// scalar_conv is the original layer-level conv forward: per output, the
// (ci, ky, kx) chain of multiply-then-accumulate taps (padded taps multiply
// by a zero activation) and the trailing bias add, with the per-tap
// Shape::index arithmetic replaced by hoisted row pointers. scalar_fc is
// likewise the original fully-connected forward, and scalar_chain /
// scalar_chain_pair the same tap loop over gathered taps. scalar_conv,
// scalar_lrn and scalar_maxpool compute one output Region (kernels.h); each
// output's value does not depend on the region it is computed in.
//
// The post-MAC kernels (scalar_lrn / scalar_maxpool / scalar_avgpool /
// scalar_softmax) are the original layer-level LRN / maxpool / avgpool /
// softmax forward loops, restructured for speed but bit-identical output
// for output:
//  - scalar_lrn buffers each spatial column's squared activations once (the
//    old loop re-converted every window tap from T per output, a 5-6x
//    redundancy at size=5) and then sums each output's window from the
//    buffer in the SAME low-to-high channel order, so the per-output
//    summation order — and therefore every output bit — is unchanged and
//    the scalar reference remains the semantic ground truth. The per-element
//    std::pow stays at double precision; two exact shortcuts avoid calls
//    whose result is already known: pow(1.0, beta) == 1.0 identically (the
//    all-zero window under the default k=1 bias — common after relu), and a
//    repeat of the immediately preceding base reuses its result (pow is
//    deterministic).
//  - scalar_softmax buffers the exp() pass on the stack instead of
//    recomputing it in the normalize pass (exp is deterministic, so the old
//    recompute form produced identical bits; past 1024 classes it falls back
//    to exactly that recompute form to stay allocation-free).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/numeric/traits.h"

namespace dnnfi::dnn::kernels {

/// Convolution over the outputs in `r`, scalar reference.
template <typename T>
void scalar_conv(const ConvGeom& g, const Region& r, const T* in,
                 const T* w_oihw, const T* /*w_packed*/, const T* bias,
                 T* out) {
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const std::size_t kvol = g.in_c * g.k * g.k;
  for (std::size_t co = r.c0; co < r.c1; ++co) {
    const T* const wco = w_oihw + co * kvol;
    const T b = bias[co];
    T* const oc = out + co * g.out_h * g.out_w;
    for (std::size_t oy = r.y0; oy < r.y1; ++oy) {
      T* op = oc + oy * g.out_w + r.x0;
      for (std::size_t ox = r.x0; ox < r.x1; ++ox) {
        T acc{};
        const T* w = wco;
        for (std::size_t ci = 0; ci < g.in_c; ++ci) {
          const T* const ic = in + ci * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            const bool row_ok =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            const T* const irow =
                row_ok ? ic + static_cast<std::size_t>(iy) * g.in_w : nullptr;
            for (std::size_t kx = 0; kx < g.k; ++kx, ++w) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              T act{};
              if (row_ok && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(g.in_w))
                act = irow[static_cast<std::size_t>(ix)];
              const T product = *w * act;
              acc += product;
            }
          }
        }
        acc += b;
        *op++ = acc;
      }
    }
  }
}

/// Fully-connected layer, scalar reference.
template <typename T>
void scalar_fc(const FcGeom& g, const T* in, const T* w,
               const T* /*w_packed*/, const T* bias, T* out) {
  for (std::size_t o = 0; o < g.out; ++o) {
    T acc{};
    const T* const wr = w + o * g.in;
    for (std::size_t i = 0; i < g.in; ++i) {
      const T product = wr[i] * in[i];
      acc += product;
    }
    acc += bias[o];
    out[o] = acc;
  }
}

/// One gathered chain (ChainFn), scalar reference.
template <typename T>
void scalar_chain(const T* w, const T* a, std::size_t n, T* acc) {
  T s = *acc;
  for (std::size_t i = 0; i < n; ++i) {
    const T product = w[i] * a[i];
    s += product;
  }
  *acc = s;
}

/// A faulty and a golden chain up to their first bit-equal tap count
/// (ChainPairFn), scalar reference.
template <typename T>
std::size_t scalar_chain_pair(const T* w, const T* a, std::size_t n, T* acc,
                              T* gold) {
  using Tr = numeric::numeric_traits<T>;
  std::size_t k = 0;
  for (; Tr::to_bits(*acc) != Tr::to_bits(*gold); ++k) {
    if (k == n) return n + 1;
    const T product = w[k] * a[k];
    *acc += product;
    *gold += product;
  }
  return k;
}

template <typename T>
void scalar_relu(const T* in, T* out, std::size_t n) {
  const T zero{};
  for (std::size_t i = 0; i < n; ++i) out[i] = (in[i] > zero) ? in[i] : zero;
}

/// Stack-buffer capacity shared by the LRN / softmax kernels. Every zoo
/// network is far below it; larger shapes take the unbuffered (slower but
/// identical) path so the kernels stay allocation-free at any size.
inline constexpr std::size_t kScalarStackDoubles = 1024;

/// pow(base, beta) with the two exact shortcuts described in the header
/// comment. `memo_base`/`memo_pow` carry the previous call's base/result;
/// a NaN base never matches the memo (NaN != NaN) and is recomputed.
inline double lrn_pow(double base, double beta, double& memo_base,
                      double& memo_pow) {
  if (base == 1.0) return 1.0;
  if (base == memo_base) return memo_pow;
  memo_base = base;
  memo_pow = std::pow(base, beta);
  return memo_pow;
}

/// Local response normalization over the outputs in `r`, scalar reference
/// (see header comment for the bit-identity argument). Window sums run at
/// double precision in low-to-high channel order per output, exactly like
/// the former Lrn::raw_scale.
template <typename T>
void scalar_lrn(const LrnGeom& g, const Region& r, const T* in, T* out) {
  using Tr = numeric::numeric_traits<T>;
  const std::size_t plane = g.h * g.w;
  const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
  const double an = g.alpha / static_cast<double>(g.size);
  const bool buffered = g.c <= kScalarStackDoubles;
  // Channels any output window in r.c0..r.c1 reads.
  const std::size_t lo =
      r.c0 > g.size / 2 ? r.c0 - g.size / 2 : std::size_t{0};
  const std::size_t hi = std::min(g.c, r.c1 + g.size / 2);
  double sq[kScalarStackDoubles];
  for (std::size_t y = r.y0; y < r.y1; ++y) {
    for (std::size_t p = y * g.w + r.x0; p < y * g.w + r.x1; ++p) {
      if (buffered) {
        for (std::size_t c = lo; c < hi; ++c) {
          const double v = Tr::to_double(in[c * plane + p]);
          sq[c] = v * v;
        }
      }
      double memo_base = std::numeric_limits<double>::quiet_NaN();
      double memo_pow = 0.0;
      for (std::size_t c = r.c0; c < r.c1; ++c) {
        const std::ptrdiff_t clo = std::max<std::ptrdiff_t>(
            0, static_cast<std::ptrdiff_t>(c) - half);
        const std::ptrdiff_t chi =
            std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(g.c) - 1,
                                     static_cast<std::ptrdiff_t>(c) + half);
        double ss = 0;
        if (buffered) {
          for (std::ptrdiff_t cc = clo; cc <= chi; ++cc)
            ss += sq[static_cast<std::size_t>(cc)];
        } else {
          for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
            const double v =
                Tr::to_double(in[static_cast<std::size_t>(cc) * plane + p]);
            ss += v * v;
          }
        }
        const double base = g.k + an * ss;
        const double denom = lrn_pow(base, g.beta, memo_base, memo_pow);
        const double v = Tr::to_double(in[c * plane + p]);
        out[c * plane + p] = Tr::from_double(v / denom);
      }
    }
  }
}

/// Max pooling over the outputs in `r`, scalar reference: the original
/// layer-level maxpool loop with the window seeded from its first element
/// and strict-greater updates, so NaNs never win and first-maximum
/// tie-breaking is preserved.
template <typename T>
void scalar_maxpool(const PoolGeom& g, const Region& r, const T* in, T* out) {
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  for (std::size_t c = r.c0; c < r.c1; ++c) {
    const T* const ic = in + c * iplane;
    T* const oc = out + c * oplane;
    for (std::size_t oy = r.y0; oy < r.y1; ++oy) {
      const T* const iwin = ic + oy * g.stride * g.in_w;
      T* const orow = oc + oy * g.out_w;
      for (std::size_t ox = r.x0; ox < r.x1; ++ox) {
        const T* const base = iwin + ox * g.stride;
        T best = base[0];
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const T* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const T v = irow[kx];
            if (v > best) best = v;
          }
        }
        orow[ox] = best;
      }
    }
  }
}

/// Global average pooling, scalar reference: per channel, a sequential
/// double-precision sum over the plane then one multiply by 1/plane.
template <typename T>
void scalar_avgpool(const T* in, T* out, std::size_t channels,
                    std::size_t plane) {
  using Tr = numeric::numeric_traits<T>;
  const double inv = 1.0 / static_cast<double>(plane);
  for (std::size_t c = 0; c < channels; ++c) {
    const T* const ic = in + c * plane;
    double s = 0;
    for (std::size_t i = 0; i < plane; ++i) s += Tr::to_double(ic[i]);
    out[c] = Tr::from_double(s * inv);
  }
}

/// The original softmax's shifted exp: NaNs map to exp(-inf) = 0 so a poisoned
/// class drops out instead of wrecking every confidence score.
template <typename T>
double softmax_shifted_exp(T raw, double mx) {
  double v = numeric::numeric_traits<T>::to_double(raw);
  if (std::isnan(v)) v = -std::numeric_limits<double>::infinity();
  return std::exp(std::min(v - mx, 700.0));
}

/// Softmax, scalar reference (see header comment): finite max, buffered
/// exp/sum pass, normalize.
template <typename T>
void scalar_softmax(const T* in, T* out, std::size_t n) {
  using Tr = numeric::numeric_traits<T>;
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double v = Tr::to_double(in[i]);
    if (std::isfinite(v)) mx = std::max(mx, v);
  }
  if (!std::isfinite(mx)) mx = 0;
  const bool buffered = n <= kScalarStackDoubles;
  double buf[kScalarStackDoubles];
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = softmax_shifted_exp(in[i], mx);
    if (buffered) buf[i] = e;
    sum += e;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double e = buffered ? buf[i] : softmax_shifted_exp(in[i], mx);
    out[i] = Tr::from_double(sum > 0 ? e / sum : 0.0);
  }
}

}  // namespace dnnfi::dnn::kernels
