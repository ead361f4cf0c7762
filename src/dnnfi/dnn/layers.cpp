#include "dnnfi/dnn/layers.h"

#include <algorithm>
#include <cmath>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/weights.h"

namespace dnnfi::dnn {

namespace {

using detail::from_d;
using detail::kTapChunk;
using detail::to_d;

/// Records a latch upset of `value` (what `op` does to it).
template <typename T>
void record_flip(InjectionRecord* rec, T value, const fault::FaultOp& op) {
  if (rec == nullptr) return;
  rec->corrupted_before = to_d(value);
  rec->corrupted_after = to_d(fault::apply_op(value, op));
  rec->zero_to_one = fault::op_zero_to_one(value, op);
  rec->applied = true;
}

/// Records the affected output activation before and after the fault.
template <typename T>
void note_act(InjectionRecord* rec, T before, T after) {
  if (rec == nullptr) return;
  rec->act_before = to_d(before);
  rec->act_after = to_d(after);
}

/// How one output's MAC chain departs from its golden chain: at step
/// `step` only, by a latch upset (`op` at `site`: MacFault, ColumnFault) or
/// by a replaced operand (`w` / `a`: WeightFault, ScopedInputFault).
template <typename T>
struct StepFault {
  std::size_t step = 0;
  const fault::FaultOp* op = nullptr;
  MacSite site = MacSite::kAccumulator;
  std::optional<T> w, a;

  static StepFault upset(std::size_t step, const fault::FaultOp& op,
                         MacSite site) {
    StepFault f;
    f.step = step;
    f.op = &op;
    f.site = site;
    return f;
  }
  static StepFault weight(std::size_t step, T w) {
    StepFault f;
    f.step = step;
    f.w = w;
    return f;
  }
  static StepFault input(std::size_t step, T a) {
    StepFault f;
    f.step = step;
    f.a = a;
    return f;
  }
};

/// One output whose n-step chain departs from the golden one as `f` says:
/// the golden chain with one step changed, run on `ks`. `w` is the output's
/// weight row (read in place); `acts(b, e)` returns its activations of
/// steps [b, e), e - b <= kTapChunk (padded taps zero). Returns the faulty
/// output, or nullopt when it equals the golden output bit for bit, so the
/// golden value already in place stands:
///   - an operand upset whose faulty product equals the golden product
///     changes nothing (no chain runs);
///   - otherwise the prefix [0, step) runs on ks.chain, the step itself
///     here (T arithmetic, so the record reads the reference's values),
///     then ks.chain_pair carries the faulty and the golden accumulators
///     until they reconverge — from then on the chains are identical;
///   - a chain that never reconverges ends with the bias add.
template <typename T, class Acts>
std::optional<T> diverged_output(const kernels::KernelSet<T>& ks, const T* w,
                                 std::size_t n, Acts&& acts,
                                 const StepFault<T>& f, T bias,
                                 InjectionRecord* rec) {
  const std::size_t s = f.step;
  const T w0 = w[s];
  const T a0 = *acts(s, s + 1);
  T wf = f.w.value_or(w0);
  T af = f.a.value_or(a0);
  const bool latch = f.op != nullptr;
  if (latch && f.site == MacSite::kOperandAct) {
    record_flip(rec, a0, *f.op);
    af = fault::apply_op(a0, *f.op);
  }
  if (latch && f.site == MacSite::kOperandWeight) {
    record_flip(rec, w0, *f.op);
    wf = fault::apply_op(w0, *f.op);
  }
  const T gp = w0 * a0;
  T fp = wf * af;
  if (latch && f.site == MacSite::kProduct) {
    record_flip(rec, gp, *f.op);
    fp = fault::apply_op(gp, *f.op);
  } else if (!(latch && f.site == MacSite::kAccumulator) &&
             numeric::numeric_traits<T>::to_bits(fp) ==
                 numeric::numeric_traits<T>::to_bits(gp)) {
    return std::nullopt;
  }
  T acc{};
  for (std::size_t b = 0; b < s; b += kTapChunk) {
    const std::size_t e = std::min(s, b + kTapChunk);
    ks.chain(w + b, acts(b, e), e - b, &acc);
  }
  T gold = acc;
  gold += gp;
  acc += fp;
  if (latch && f.site == MacSite::kAccumulator) {
    record_flip(rec, gold, *f.op);
    acc = fault::apply_op(gold, *f.op);
  }
  for (std::size_t b = s + 1;;) {
    const std::size_t e = std::min(n, b + kTapChunk);
    if (ks.chain_pair(w + b, acts(b, e), e - b, &acc, &gold) <= e - b)
      return std::nullopt;
    if (e == n) break;
    b = e;
  }
  acc += bias;
  return acc;
}

/// The activations of conv output (oy, ox) for diverged_output: steps
/// [b, e) gathered into `taps` in (ci, ky, kx) order, padded taps zero.
template <typename T>
auto conv_taps(const kernels::ConvGeom& g, const T* src, std::size_t oy,
               std::size_t ox, T* taps) {
  const auto y0 = static_cast<std::ptrdiff_t>(oy * g.stride) -
                  static_cast<std::ptrdiff_t>(g.pad);
  const auto x0 = static_cast<std::ptrdiff_t>(ox * g.stride) -
                  static_cast<std::ptrdiff_t>(g.pad);
  return [&g, src, taps, y0, x0](std::size_t b, std::size_t e) -> const T* {
    const std::size_t k = g.k;
    std::size_t ci = b / (k * k), ky = b / k % k, kx = b % k;
    for (std::size_t i = 0; i < e - b; ++i) {
      const std::ptrdiff_t iy = y0 + static_cast<std::ptrdiff_t>(ky);
      const std::ptrdiff_t ix = x0 + static_cast<std::ptrdiff_t>(kx);
      taps[i] = iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                        ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w)
                    ? src[(ci * g.in_h + static_cast<std::size_t>(iy)) *
                              g.in_w +
                          static_cast<std::size_t>(ix)]
                    : T{};
      if (++kx == k) {
        kx = 0;
        if (++ky == k) {
          ky = 0;
          ++ci;
        }
      }
    }
    return taps;
  };
}

/// LRN's denominator base k + alpha/n * (sum of squares over the channel
/// window of c) at (y, x).
template <typename T>
double raw_scale(const kernels::LrnGeom& g, ConstTensorView<T> in,
                 std::size_t c, std::size_t y, std::size_t x,
                 std::ptrdiff_t half) {
  const Shape& is = in.shape();
  const std::ptrdiff_t clo =
      std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(c) - half);
  const std::ptrdiff_t chi =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(is.c) - 1,
                               static_cast<std::ptrdiff_t>(c) + half);
  double ss = 0;
  for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
    const double v = to_d(in.at(0, static_cast<std::size_t>(cc), y, x));
    ss += v * v;
  }
  return g.k + g.alpha / static_cast<double>(g.size) * ss;
}

}  // namespace

template <typename T>
void apply_faults(const PlanStep<T>& st,
                  std::type_identity_t<ConstTensorView<T>> in,
                  std::type_identity_t<TensorView<T>> out,
                  const LayerFaults& faults, InjectionRecord* rec,
                  const kernels::KernelSet<T>& ks) {
  const bool fc = st.kernel == StepKernel::kFc;
  DNNFI_EXPECTS(fc || st.kernel == StepKernel::kConv);
  DNNFI_EXPECTS(in.shape() == st.in_shape && out.shape() == st.out_shape);
  // FC is the 1x1 convolution of a 1x1 input with fc.in channels: output o
  // is channel o, and its step i reads input i (in place, no tap gather).
  const kernels::ConvGeom g =
      fc ? kernels::ConvGeom{st.fc.in, 1, 1, st.fc.out, 1, 1, 1, 1, 0}
         : st.conv;
  const std::size_t n = g.steps();
  const std::size_t plane = g.out_h * g.out_w;
  const T* const src = in.data().data();
  T taps[kTapChunk];
  // Output e with its chain departing from the golden one as `sf` says
  // (diverged_output); nullopt leaves the golden value in place.
  const auto rewrite = [&](std::size_t e, const StepFault<T>& sf,
                           InjectionRecord* r) {
    const std::size_t co = e / plane;
    const T* const w = st.w + co * n;
    const std::optional<T> v =
        fc ? diverged_output(
                 ks, w, n, [src](std::size_t b, std::size_t) { return src + b; },
                 sf, st.bias[co], r)
           : diverged_output(ks, w, n,
                             conv_taps(g, src, e % plane / g.out_w,
                                       e % g.out_w, taps),
                             sf, st.bias[co], r);
    if (v) out[e] = *v;
  };
  if (faults.mac) {
    const MacFault& f = *faults.mac;
    DNNFI_EXPECTS(f.out_index < out.size() && f.step < n);
    const T before = out[f.out_index];
    rewrite(f.out_index, StepFault<T>::upset(f.step, f.op, f.site), rec);
    note_act(rec, before, out[f.out_index]);
  }
  if (faults.weight) {
    const WeightFault& f = *faults.weight;
    DNNFI_EXPECTS(f.weight_index < g.out_c * n);
    const T w1 =
        detail::storage_strike(st.w[f.weight_index], f.op, f.storage, rec);
    // The corrupted weight feeds one step of every output of its channel.
    const std::size_t co = f.weight_index / n;
    const auto sf = StepFault<T>::weight(f.weight_index % n, w1);
    const T rep_before = out[co * plane];
    for (std::size_t e = co * plane; e < (co + 1) * plane; ++e)
      rewrite(e, sf, nullptr);
    note_act(rec, rep_before, out[co * plane]);
  }
  if (faults.scoped_input) {
    const ScopedInputFault& f = *faults.scoped_input;
    DNNFI_EXPECTS(f.input_index < in.size());
    DNNFI_EXPECTS(f.out_channel < g.out_c && f.out_row < g.out_h);
    const T v1 =
        detail::storage_strike(in[f.input_index], f.op, f.storage, rec);
    // Each output of the row whose window holds the value reads it at one
    // step; the others stay golden.
    // (yp, xp): the value's position in the padded input.
    const std::size_t ci = f.input_index / (g.in_h * g.in_w);
    const std::size_t yp = f.input_index / g.in_w % g.in_h + g.pad;
    const std::size_t xp = f.input_index % g.in_w + g.pad;
    const std::size_t y0 = f.out_row * g.stride;
    const std::size_t row = (f.out_channel * g.out_h + f.out_row) * g.out_w;
    const T rep_before = out[row];
    for (std::size_t ox = 0; yp >= y0 && yp - y0 < g.k && ox < g.out_w; ++ox) {
      if (xp < ox * g.stride || xp - ox * g.stride >= g.k) continue;
      const std::size_t step =
          (ci * g.k + yp - y0) * g.k + xp - ox * g.stride;
      rewrite(row + ox, StepFault<T>::input(step, v1), nullptr);
    }
    note_act(rec, rep_before, out[row]);
  }
  if (faults.column) {
    // Weight-stationary systolic column propagation (accel::SystolicArray):
    // every output element still flowing through the struck column after
    // the strike re-accumulates through the corrupt partial-sum chain. An
    // output maps onto column (channel % cols).
    const ColumnFault& f = *faults.column;
    DNNFI_EXPECTS(f.step < n && f.cols > 0 && f.first_out < out.size());
    const auto sf = StepFault<T>::upset(f.step, f.op, MacSite::kAccumulator);
    InjectionRecord* first = rec;  // the first element's chain records
    for (std::size_t e = f.first_out; e < out.size(); ++e) {
      if ((e / plane) % f.cols != f.col) continue;
      const T before = out[e];
      rewrite(e, sf, first);
      note_act(first, before, out[e]);
      first = nullptr;
    }
  }
}

template <typename T>
void backward(const PlanStep<T>& st,
              std::type_identity_t<ConstTensorView<T>> in,
              std::type_identity_t<ConstTensorView<T>> out,
              const Tensor<T>& gout, Tensor<T>& gin,
              std::type_identity_t<std::span<T>> gw,
              std::type_identity_t<std::span<T>> gb) {
  switch (st.kernel) {
    case StepKernel::kConv: {
      const kernels::ConvGeom& g = st.conv;
      DNNFI_EXPECTS(gw.size() == g.out_c * g.steps() && gb.size() == g.out_c);
      const Shape is = in.shape();
      const Shape os = gout.shape();
      if (gin.shape() != is) gin.reshape(is);
      gin.fill(T{});
      for (std::size_t co = 0; co < os.c; ++co) {
        for (std::size_t oy = 0; oy < os.h; ++oy) {
          for (std::size_t ox = 0; ox < os.w; ++ox) {
            const T gv = gout.at(0, co, oy, ox);
            gb[co] += gv;
            for (std::size_t ci = 0; ci < g.in_c; ++ci) {
              for (std::size_t ky = 0; ky < g.k; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                    static_cast<std::ptrdiff_t>(g.pad);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(is.h)) continue;
                for (std::size_t kx = 0; kx < g.k; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                      static_cast<std::ptrdiff_t>(g.pad);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(is.w))
                    continue;
                  const std::size_t ii =
                      is.index(0, ci, static_cast<std::size_t>(iy),
                               static_cast<std::size_t>(ix));
                  const std::size_t wi = ((co * g.in_c + ci) * g.k + ky) * g.k + kx;
                  gw[wi] += gv * in[ii];
                  gin[ii] += gv * st.w[wi];
                }
              }
            }
          }
        }
      }
      return;
    }
    case StepKernel::kFc: {
      const kernels::FcGeom& g = st.fc;
      DNNFI_EXPECTS(gw.size() == g.out * g.in && gb.size() == g.out);
      if (gin.shape() != in.shape()) gin.reshape(in.shape());
      gin.fill(T{});
      for (std::size_t o = 0; o < g.out; ++o) {
        const T gv = gout[o];
        gb[o] += gv;
        const std::size_t base = o * g.in;
        for (std::size_t i = 0; i < g.in; ++i) {
          gw[base + i] += gv * in[i];
          gin[i] += gv * st.w[base + i];
        }
      }
      return;
    }
    case StepKernel::kRelu: {
      if (gin.shape() != in.shape()) gin.reshape(in.shape());
      const T zero{};
      for (std::size_t i = 0; i < in.size(); ++i)
        gin[i] = (in[i] > zero) ? gout[i] : zero;
      return;
    }
    case StepKernel::kMaxPool: {
      const std::size_t k = st.pool.k, stride = st.pool.stride;
      const Shape os = gout.shape();
      if (gin.shape() != in.shape()) gin.reshape(in.shape());
      gin.fill(T{});
      for (std::size_t c = 0; c < os.c; ++c)
        for (std::size_t oy = 0; oy < os.h; ++oy)
          for (std::size_t ox = 0; ox < os.w; ++ox) {
            // Route gradient to the window argmax (first maximum wins ties,
            // matching the maxpool kernel's strict-greater comparison).
            std::size_t by = oy * stride, bx = ox * stride;
            T best = in.at(0, c, by, bx);
            for (std::size_t ky = 0; ky < k; ++ky)
              for (std::size_t kx = 0; kx < k; ++kx) {
                const T v = in.at(0, c, oy * stride + ky, ox * stride + kx);
                if (v > best) {
                  best = v;
                  by = oy * stride + ky;
                  bx = ox * stride + kx;
                }
              }
            gin.at(0, c, by, bx) += gout.at(0, c, oy, ox);
          }
      return;
    }
    case StepKernel::kLrn: {
      const kernels::LrnGeom& g = st.lrn;
      const Shape& is = in.shape();
      if (gin.shape() != is) gin.reshape(is);
      const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(g.size / 2);
      const double coef = 2.0 * g.alpha * g.beta / static_cast<double>(g.size);
      for (std::size_t y = 0; y < is.h; ++y) {
        for (std::size_t x = 0; x < is.w; ++x) {
          for (std::size_t i = 0; i < is.c; ++i) {
            const double vi = to_d(in.at(0, i, y, x));
            double gv = 0;
            // c ranges over outputs whose window includes channel i.
            const std::ptrdiff_t clo = std::max<std::ptrdiff_t>(
                0, static_cast<std::ptrdiff_t>(i) - half);
            const std::ptrdiff_t chi = std::min<std::ptrdiff_t>(
                static_cast<std::ptrdiff_t>(is.c) - 1,
                static_cast<std::ptrdiff_t>(i) + half);
            for (std::ptrdiff_t c = clo; c <= chi; ++c) {
              const auto cu = static_cast<std::size_t>(c);
              const double s = raw_scale(g, in, cu, y, x, half);
              const double go = to_d(gout.at(0, cu, y, x));
              const double vc = to_d(in.at(0, cu, y, x));
              // pow(s, -beta) == pow(s, -beta-1) * s up to rounding; one pow
              // call per window term instead of two.
              const double p1 = std::pow(s, -g.beta - 1.0);
              if (cu == i) gv += go * (p1 * s);
              gv -= go * coef * vc * vi * p1;
            }
            gin.at(0, i, y, x) = from_d<T>(gv);
          }
        }
      }
      return;
    }
    case StepKernel::kSoftmax: {
      if (gin.shape() != out.shape()) gin.reshape(out.shape());
      double dot = 0;
      for (std::size_t j = 0; j < out.size(); ++j)
        dot += to_d(gout[j]) * to_d(out[j]);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double oi = to_d(out[i]);
        gin[i] = from_d<T>(oi * (to_d(gout[i]) - dot));
      }
      return;
    }
    case StepKernel::kAvgPool: {
      const Shape& is = in.shape();
      if (gin.shape() != is) gin.reshape(is);
      const double inv = 1.0 / static_cast<double>(is.h * is.w);
      for (std::size_t c = 0; c < is.c; ++c) {
        const T gv = from_d<T>(to_d(gout[c]) * inv);
        for (std::size_t y = 0; y < is.h; ++y)
          for (std::size_t x = 0; x < is.w; ++x) gin.at(0, c, y, x) = gv;
      }
      return;
    }
  }
}

#define DNNFI_APPLY_FAULTS(T)                                              \
  template void apply_faults<T>(const PlanStep<T>&, ConstTensorView<T>,    \
                                TensorView<T>, const LayerFaults&,         \
                                InjectionRecord*, const kernels::KernelSet<T>&);
DNNFI_APPLY_FAULTS(double)
DNNFI_APPLY_FAULTS(float)
DNNFI_APPLY_FAULTS(numeric::Half)
DNNFI_APPLY_FAULTS(numeric::Fx32r26)
DNNFI_APPLY_FAULTS(numeric::Fx32r10)
DNNFI_APPLY_FAULTS(numeric::Fx16r10)
#undef DNNFI_APPLY_FAULTS

template void backward<float>(const PlanStep<float>&, ConstTensorView<float>,
                              ConstTensorView<float>, const Tensor<float>&,
                              Tensor<float>&, std::span<float>,
                              std::span<float>);
template void backward<double>(const PlanStep<double>&,
                               ConstTensorView<double>,
                               ConstTensorView<double>, const Tensor<double>&,
                               Tensor<double>&, std::span<double>,
                               std::span<double>);

void init_weights(Network<float>& net, std::uint64_t seed) {
  const auto& macs = net.mac_layers();
  net.update_params([&](auto params) {
    for (std::size_t m = 0; m < macs.size(); ++m) {
      auto& w = params[macs[m]].weights;
      auto& b = params[macs[m]].biases;
      // He-normal: std = sqrt(2 / fan_in). fan_in = weights per output.
      const std::size_t fan_in = w.size() / std::max<std::size_t>(1, b.size());
      const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
      Rng rng = derive_stream(seed, 0xC0FFEE00ULL + m);
      for (auto& v : w) v = static_cast<float>(rng.normal() * stddev);
      for (auto& v : b) v = 0.0F;
    }
  });
}

WeightsBlob extract_weights(const Network<float>& net) {
  WeightsBlob blob;
  blob.layers.reserve(net.mac_layers().size());
  for (const std::size_t li : net.mac_layers())
    blob.layers.push_back(net.params()[li]);
  return blob;
}

}  // namespace dnnfi::dnn
