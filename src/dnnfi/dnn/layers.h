// Concrete layers: Conv2d, FullyConnected, ReLU, MaxPool2d, Lrn, Softmax,
// GlobalAvgPool. Conv/FC perform every MAC in the datapath type T and are
// the layers that accept hardware fault hooks; the remaining layers model
// fixed-function / host-side units.
//
// Numerics note: LRN, Softmax, and average pooling are computed at double
// internal precision and re-quantized to T on output. Real accelerators
// implement these in dedicated higher-precision units or on the host (the
// paper's fault model likewise excludes them as injection targets); what
// matters for error propagation is that their *masking* behaviour (value
// averaging, winner selection, range compression) acts on T-typed inputs,
// which it does here.
//
// The fault-free forward of every layer is a step of the network's
// ExecutionPlan (executor.h). apply_faults is allocation-free: it patches a
// caller-sized output view, so the executor can drive a whole campaign out
// of one arena.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/layer.h"
#include "dnnfi/fault/fault_op.h"
#include "dnnfi/numeric/traits.h"

namespace dnnfi::dnn {

namespace detail {
template <typename T>
double to_d(T v) {
  return numeric::numeric_traits<T>::to_double(v);
}
template <typename T>
T from_d(double v) {
  return numeric::numeric_traits<T>::from_double(v);
}

/// Applies a mask-based fault operation to `v`, optionally striking a
/// reduced storage format (encode -> upset -> decode) instead of the
/// datapath word.
template <typename T>
T storage_apply(T v, const fault::FaultOp& op,
                const std::optional<numeric::DType>& storage) {
  if (!storage) return fault::apply_op(v, op);
  return from_d<T>(numeric::dispatch_dtype(*storage, [&]<typename S>() {
    using Tr = numeric::numeric_traits<S>;
    return Tr::to_double(fault::apply_op(Tr::from_double(to_d(v)), op));
  }));
}

/// Direction of the lowest affected bit (0 -> 1?) in the format it struck.
template <typename T>
bool storage_apply_dir(T v, const fault::FaultOp& op,
                       const std::optional<numeric::DType>& storage) {
  if (!storage) return fault::op_zero_to_one(v, op);
  return numeric::dispatch_dtype(*storage, [&]<typename S>() {
    return fault::op_zero_to_one(
        numeric::numeric_traits<S>::from_double(to_d(v)), op);
  });
}

/// Applies a buffer upset to the stored operand `v` (a weight or an input
/// value), records it, and returns the corrupted value.
template <typename T>
T storage_strike(T v, const fault::FaultOp& op,
                 const std::optional<numeric::DType>& storage,
                 InjectionRecord* rec) {
  const T after = storage_apply(v, op, storage);
  if (rec != nullptr) {
    rec->corrupted_before = to_d(v);
    rec->corrupted_after = to_d(after);
    rec->zero_to_one = storage_apply_dir(v, op, storage);
    rec->applied = true;
  }
  return after;
}

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

/// Taps gathered per chain call: one output's activations are staged in
/// chunks of this many, so the buffer is bounded whatever the kernel volume.
inline constexpr std::size_t kTapChunk = 256;

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
}  // namespace detail

/// 2-D convolution with square kernels, zero padding, and per-output-channel
/// bias. MAC order (the `step` coordinate of MacFault) is row-major over
/// (ci, ky, kx); padded taps execute with a zero activation, as a spatial
/// accelerator's PE array would.
template <typename T>
class Conv2d final : public Layer<T> {
 public:

  Conv2d(std::string name, int block, std::size_t in_c, std::size_t out_c,
         std::size_t k, std::size_t stride, std::size_t pad)
      : Layer<T>(std::move(name), block),
        in_c_(in_c),
        out_c_(out_c),
        k_(k),
        stride_(stride),
        pad_(pad),
        weights_(tensor::oihw(out_c, in_c, k, k)),
        bias_(out_c, T{}) {
    DNNFI_EXPECTS(in_c > 0 && out_c > 0 && k > 0 && stride > 0);
  }

  LayerKind kind() const noexcept override { return LayerKind::kConv; }

  Shape out_shape(const Shape& in) const override {
    DNNFI_EXPECTS(in.c == in_c_);
    DNNFI_EXPECTS(in.h + 2 * pad_ >= k_ && in.w + 2 * pad_ >= k_);
    const std::size_t oh = (in.h + 2 * pad_ - k_) / stride_ + 1;
    const std::size_t ow = (in.w + 2 * pad_ - k_) / stride_ + 1;
    return tensor::chw(out_c_, oh, ow);
  }

  std::size_t macs(const Shape& in) const override {
    return out_shape(in).size() * steps();
  }

  /// Accumulation steps per output element (the kernel volume).
  std::size_t steps() const noexcept { return in_c_ * k_ * k_; }

  std::span<T> weights() override { return weights_.data(); }
  std::span<const T> weights() const override { return weights_.data(); }
  std::span<T> biases() override { return bias_; }
  std::span<const T> biases() const override { return bias_; }

  /// Kernel geometry for this layer under the given input/output shapes.
  kernels::ConvGeom geom(const Shape& in, const Shape& os) const noexcept {
    return {in.c, in.h, in.w, os.c, os.h, os.w, k_, stride_, pad_};
  }

  void apply_faults(ConstTensorView<T> in, TensorView<T> out,
                    const LayerFaults& faults, InjectionRecord* rec,
                    const kernels::KernelSet<T>& ks) const override {
    const Shape os = out.shape();
    DNNFI_EXPECTS(os == out_shape(in.shape()));
    const std::size_t plane = os.h * os.w;
    T taps[detail::kTapChunk];
    const auto rewrite = [&](std::size_t e, const detail::StepFault<T>& sf,
                             InjectionRecord* r) {
      if (const auto v = compute_one(ks, in, e / plane, e % plane / os.w,
                                     e % os.w, sf, r, taps))
        out[e] = *v;
    };
    if (faults.mac) {
      const MacFault& f = *faults.mac;
      DNNFI_EXPECTS(f.out_index < out.size() && f.step < steps());
      const T before = out[f.out_index];
      rewrite(f.out_index, detail::StepFault<T>::upset(f.step, f.op, f.site),
              rec);
      detail::note_act(rec, before, out[f.out_index]);
    }
    if (faults.weight) {
      const WeightFault& f = *faults.weight;
      DNNFI_EXPECTS(f.weight_index < weights_.size());
      const T w1 = detail::storage_strike(weights_[f.weight_index], f.op,
                                          f.storage, rec);
      // The corrupted weight feeds one step of every output of its channel.
      const std::size_t co = f.weight_index / steps();
      const auto sf =
          detail::StepFault<T>::weight(f.weight_index % steps(), w1);
      const T rep_before = out[co * plane];
      for (std::size_t e = co * plane; e < (co + 1) * plane; ++e)
        rewrite(e, sf, nullptr);
      detail::note_act(rec, rep_before, out[co * plane]);
    }
    if (faults.scoped_input) {
      const ScopedInputFault& f = *faults.scoped_input;
      DNNFI_EXPECTS(f.input_index < in.size());
      DNNFI_EXPECTS(f.out_channel < os.c && f.out_row < os.h);
      const T v1 = detail::storage_strike(in[f.input_index], f.op, f.storage,
                                          rec);
      // Each output of the row whose window holds the value reads it at one
      // step; the others stay golden.
      // (yp, xp): the value's position in the padded input.
      const Shape& is = in.shape();
      const std::size_t ci = f.input_index / (is.h * is.w);
      const std::size_t yp = f.input_index / is.w % is.h + pad_;
      const std::size_t xp = f.input_index % is.w + pad_;
      const std::size_t y0 = f.out_row * stride_;
      const std::size_t row = (f.out_channel * os.h + f.out_row) * os.w;
      const T rep_before = out[row];
      for (std::size_t ox = 0; yp >= y0 && yp - y0 < k_ && ox < os.w; ++ox) {
        if (xp < ox * stride_ || xp - ox * stride_ >= k_) continue;
        const std::size_t step = (ci * k_ + yp - y0) * k_ + xp - ox * stride_;
        rewrite(row + ox, detail::StepFault<T>::input(step, v1), nullptr);
      }
      detail::note_act(rec, rep_before, out[row]);
    }
    if (faults.column) {
      // Weight-stationary systolic column propagation (accel::SystolicArray):
      // every output element still flowing through the struck column after
      // the strike re-accumulates through the corrupt partial-sum chain.
      const ColumnFault& f = *faults.column;
      DNNFI_EXPECTS(f.step < steps() && f.cols > 0 && f.first_out < out.size());
      const auto sf =
          detail::StepFault<T>::upset(f.step, f.op, MacSite::kAccumulator);
      InjectionRecord* first = rec;  // the first element's chain records
      for (std::size_t e = f.first_out; e < out.size(); ++e) {
        if ((e / plane) % f.cols != f.col) continue;
        const T before = out[e];
        rewrite(e, sf, first);
        detail::note_act(first, before, out[e]);
        first = nullptr;
      }
    }
  }

  void backward(ConstTensorView<T> in, ConstTensorView<T> /*out*/,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T> gw,
                std::span<T> gb) const override {
    DNNFI_EXPECTS(gw.size() == weights_.size() && gb.size() == bias_.size());
    const Shape is = in.shape();
    const Shape os = gout.shape();
    if (gin.shape() != is) gin.reshape(is);
    gin.fill(T{});
    for (std::size_t co = 0; co < os.c; ++co) {
      for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ox = 0; ox < os.w; ++ox) {
          const T g = gout.at(0, co, oy, ox);
          gb[co] += g;
          for (std::size_t ci = 0; ci < in_c_; ++ci) {
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(is.h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(is.w)) continue;
                const std::size_t ii = is.index(
                    0, ci, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix));
                const std::size_t wi = weights_.shape().index(co, ci, ky, kx);
                gw[wi] += g * in[ii];
                gin[ii] += g * weights_[wi];
              }
            }
          }
        }
      }
    }
  }

  std::size_t in_channels() const noexcept { return in_c_; }
  std::size_t out_channels() const noexcept { return out_c_; }
  std::size_t kernel() const noexcept { return k_; }
  std::size_t stride() const noexcept { return stride_; }
  std::size_t pad() const noexcept { return pad_; }

 private:
  /// Output (co, oy, ox) with its chain departing from the golden one as
  /// `f` says, on `ks` (detail::diverged_output): the weight row read in
  /// place, the activations gathered into `taps` in (ci, ky, kx) order,
  /// padded taps zero. Nullopt: the output stays golden.
  std::optional<T> compute_one(const kernels::KernelSet<T>& ks,
                               ConstTensorView<T> in, std::size_t co,
                               std::size_t oy, std::size_t ox,
                               const detail::StepFault<T>& f,
                               InjectionRecord* rec, T* taps) const {
    const Shape& is = in.shape();
    const T* const src = in.data().data();
    const auto y0 = static_cast<std::ptrdiff_t>(oy * stride_) -
                    static_cast<std::ptrdiff_t>(pad_);
    const auto x0 = static_cast<std::ptrdiff_t>(ox * stride_) -
                    static_cast<std::ptrdiff_t>(pad_);
    const auto acts = [&](std::size_t b, std::size_t e) -> const T* {
      std::size_t ci = b / (k_ * k_), ky = b / k_ % k_, kx = b % k_;
      for (std::size_t i = 0; i < e - b; ++i) {
        const std::ptrdiff_t iy = y0 + static_cast<std::ptrdiff_t>(ky);
        const std::ptrdiff_t ix = x0 + static_cast<std::ptrdiff_t>(kx);
        taps[i] = iy >= 0 && iy < static_cast<std::ptrdiff_t>(is.h) &&
                          ix >= 0 && ix < static_cast<std::ptrdiff_t>(is.w)
                      ? src[(ci * is.h + static_cast<std::size_t>(iy)) * is.w +
                            static_cast<std::size_t>(ix)]
                      : T{};
        if (++kx == k_) {
          kx = 0;
          if (++ky == k_) {
            ky = 0;
            ++ci;
          }
        }
      }
      return taps;
    };
    return detail::diverged_output(ks, weights_.data().data() + co * steps(),
                                   steps(), acts, f, bias_[co], rec);
  }

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Tensor<T> weights_;
  std::vector<T> bias_;
};

/// Fully-connected layer: out[o] = sum_i W[o,i] * in[i] + b[o], all in T.
/// MacFault steps enumerate inputs; a WeightFault or ScopedInputFault
/// affects the single output that consumes the corrupted value.
template <typename T>
class FullyConnected final : public Layer<T> {
 public:

  FullyConnected(std::string name, int block, std::size_t in_features,
                 std::size_t out_features)
      : Layer<T>(std::move(name), block),
        in_(in_features),
        out_(out_features),
        weights_(tensor::oihw(out_features, in_features, 1, 1)),
        bias_(out_features, T{}) {
    DNNFI_EXPECTS(in_features > 0 && out_features > 0);
  }

  LayerKind kind() const noexcept override { return LayerKind::kFullyConnected; }

  Shape out_shape(const Shape& in) const override {
    DNNFI_EXPECTS(in.size() == in_);
    return tensor::vec(out_);
  }

  std::size_t macs(const Shape& in) const override {
    DNNFI_EXPECTS(in.size() == in_);
    return in_ * out_;
  }

  std::size_t steps() const noexcept { return in_; }

  std::span<T> weights() override { return weights_.data(); }
  std::span<const T> weights() const override { return weights_.data(); }
  std::span<T> biases() override { return bias_; }
  std::span<const T> biases() const override { return bias_; }

  void apply_faults(ConstTensorView<T> in, TensorView<T> out,
                    const LayerFaults& faults, InjectionRecord* rec,
                    const kernels::KernelSet<T>& ks) const override {
    DNNFI_EXPECTS(in.size() == in_ && out.size() == out_);
    const auto rewrite = [&](std::size_t o, const detail::StepFault<T>& sf,
                             InjectionRecord* r) {
      const T before = out[o];
      if (const auto v = compute_one(ks, in, o, sf, r)) out[o] = *v;
      detail::note_act(r, before, out[o]);
    };
    if (faults.mac) {
      const MacFault& f = *faults.mac;
      DNNFI_EXPECTS(f.out_index < out_ && f.step < in_);
      rewrite(f.out_index, detail::StepFault<T>::upset(f.step, f.op, f.site),
              rec);
    }
    if (faults.weight) {
      const WeightFault& f = *faults.weight;
      DNNFI_EXPECTS(f.weight_index < weights_.size());
      const T w1 = detail::storage_strike(weights_[f.weight_index], f.op,
                                          f.storage, rec);
      rewrite(f.weight_index / in_,
              detail::StepFault<T>::weight(f.weight_index % in_, w1), rec);
    }
    if (faults.scoped_input) {
      const ScopedInputFault& f = *faults.scoped_input;
      DNNFI_EXPECTS(f.input_index < in.size());
      DNNFI_EXPECTS(f.out_channel < out_);
      const T v1 = detail::storage_strike(in[f.input_index], f.op, f.storage,
                                          rec);
      rewrite(f.out_channel, detail::StepFault<T>::input(f.input_index, v1),
              rec);
    }
    if (faults.column) {
      // Systolic column propagation: FC output o maps onto column o % cols.
      const ColumnFault& f = *faults.column;
      DNNFI_EXPECTS(f.step < in_ && f.cols > 0 && f.first_out < out_);
      const auto sf =
          detail::StepFault<T>::upset(f.step, f.op, MacSite::kAccumulator);
      InjectionRecord* first = rec;  // the first element's chain records
      for (std::size_t o = f.first_out; o < out_; ++o) {
        if (o % f.cols != f.col) continue;
        rewrite(o, sf, first);
        first = nullptr;
      }
    }
  }

  void backward(ConstTensorView<T> in, ConstTensorView<T> /*out*/,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T> gw,
                std::span<T> gb) const override {
    DNNFI_EXPECTS(gw.size() == weights_.size() && gb.size() == bias_.size());
    if (gin.shape() != in.shape()) gin.reshape(in.shape());
    gin.fill(T{});
    for (std::size_t o = 0; o < out_; ++o) {
      const T g = gout[o];
      gb[o] += g;
      const std::size_t base = o * in_;
      for (std::size_t i = 0; i < in_; ++i) {
        gw[base + i] += g * in[i];
        gin[i] += g * weights_[base + i];
      }
    }
  }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  /// Output o with its chain departing from the golden one as `f` says, on
  /// `ks` (detail::diverged_output): weight row and input read in place.
  std::optional<T> compute_one(const kernels::KernelSet<T>& ks,
                               ConstTensorView<T> in, std::size_t o,
                               const detail::StepFault<T>& f,
                               InjectionRecord* rec) const {
    const T* const src = in.data().data();
    return detail::diverged_output(
        ks, weights_.data().data() + o * in_, in_,
        [src](std::size_t b, std::size_t) { return src + b; }, f, bias_[o],
        rec);
  }

  std::size_t in_, out_;
  Tensor<T> weights_;
  std::vector<T> bias_;
};

/// Rectified linear unit, computed in T. Negative values (including -0 and
/// corrupted negative bit patterns) are clamped to zero — one of the two
/// masking mechanisms the paper credits for fault absorption (§5.1.4).
template <typename T>
class Relu final : public Layer<T> {
 public:
  using Layer<T>::Layer;
  LayerKind kind() const noexcept override { return LayerKind::kRelu; }
  Shape out_shape(const Shape& in) const override { return in; }

  void backward(ConstTensorView<T> in, ConstTensorView<T>,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T>,
                std::span<T>) const override {
    if (gin.shape() != in.shape()) gin.reshape(in.shape());
    const T zero{};
    for (std::size_t i = 0; i < in.size(); ++i)
      gin[i] = (in[i] > zero) ? gout[i] : zero;
  }
};

/// Max pooling over square windows. Selection compares T values directly;
/// discarded window entries mask any corruption they carried (§5.1.4).
template <typename T>
class MaxPool2d final : public Layer<T> {
 public:

  MaxPool2d(std::string name, int block, std::size_t k, std::size_t stride)
      : Layer<T>(std::move(name), block), k_(k), stride_(stride) {
    DNNFI_EXPECTS(k > 0 && stride > 0);
  }

  LayerKind kind() const noexcept override { return LayerKind::kMaxPool; }

  Shape out_shape(const Shape& in) const override {
    DNNFI_EXPECTS(in.h >= k_ && in.w >= k_);
    return tensor::chw(in.c, (in.h - k_) / stride_ + 1,
                       (in.w - k_) / stride_ + 1);
  }

  void backward(ConstTensorView<T> in, ConstTensorView<T>,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T>,
                std::span<T>) const override {
    const Shape os = gout.shape();
    if (gin.shape() != in.shape()) gin.reshape(in.shape());
    gin.fill(T{});
    for (std::size_t c = 0; c < os.c; ++c)
      for (std::size_t oy = 0; oy < os.h; ++oy)
        for (std::size_t ox = 0; ox < os.w; ++ox) {
          // Route gradient to the window argmax (first maximum wins ties,
          // matching the maxpool kernel's strict-greater comparison).
          std::size_t by = oy * stride_, bx = ox * stride_;
          T best = in.at(0, c, by, bx);
          for (std::size_t ky = 0; ky < k_; ++ky)
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const T v = in.at(0, c, oy * stride_ + ky, ox * stride_ + kx);
              if (v > best) {
                best = v;
                by = oy * stride_ + ky;
                bx = ox * stride_ + kx;
              }
            }
          gin.at(0, c, by, bx) += gout.at(0, c, oy, ox);
        }
  }

  std::size_t kernel() const noexcept { return k_; }
  std::size_t stride() const noexcept { return stride_; }

 private:
  std::size_t k_, stride_;
};

/// Local Response Normalization across channels (Krizhevsky et al.):
///   out[c] = in[c] / (k + alpha/n * sum_{c' in window} in[c']^2)^beta.
/// The normalization averages a faulty value with its fault-free neighbours
/// across fmaps — the masking effect the paper measures in Fig 7.
template <typename T>
class Lrn final : public Layer<T> {
 public:

  Lrn(std::string name, int block, std::size_t size, double alpha, double beta,
      double k)
      : Layer<T>(std::move(name), block),
        size_(size),
        alpha_(alpha),
        beta_(beta),
        k_(k) {
    DNNFI_EXPECTS(size >= 1 && size % 2 == 1);
  }

  LayerKind kind() const noexcept override { return LayerKind::kLrn; }
  Shape out_shape(const Shape& in) const override { return in; }

  void backward(ConstTensorView<T> in, ConstTensorView<T>,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T>,
                std::span<T>) const override {
    const Shape& is = in.shape();
    if (gin.shape() != is) gin.reshape(is);
    const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(size_ / 2);
    const double coef = 2.0 * alpha_ * beta_ / static_cast<double>(size_);
    for (std::size_t y = 0; y < is.h; ++y) {
      for (std::size_t x = 0; x < is.w; ++x) {
        for (std::size_t i = 0; i < is.c; ++i) {
          const double vi = detail::to_d(in.at(0, i, y, x));
          double g = 0;
          // c ranges over outputs whose window includes channel i.
          const std::ptrdiff_t clo =
              std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(i) - half);
          const std::ptrdiff_t chi = std::min<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(is.c) - 1,
              static_cast<std::ptrdiff_t>(i) + half);
          for (std::ptrdiff_t c = clo; c <= chi; ++c) {
            const auto cu = static_cast<std::size_t>(c);
            const double s = raw_scale(in, cu, y, x, half);
            const double go = detail::to_d(gout.at(0, cu, y, x));
            const double vc = detail::to_d(in.at(0, cu, y, x));
            // pow(s, -beta) == pow(s, -beta-1) * s up to rounding; one pow
            // call per window term instead of two.
            const double p1 = std::pow(s, -beta_ - 1.0);
            if (cu == i) g += go * (p1 * s);
            g -= go * coef * vc * vi * p1;
          }
          gin.at(0, i, y, x) = detail::from_d<T>(g);
        }
      }
    }
  }

  std::size_t size() const noexcept { return size_; }
  double alpha() const noexcept { return alpha_; }
  double beta() const noexcept { return beta_; }
  double bias_k() const noexcept { return k_; }

 private:
  double raw_scale(ConstTensorView<T> in, std::size_t c, std::size_t y,
                   std::size_t x, std::ptrdiff_t half) const {
    const Shape& is = in.shape();
    const std::ptrdiff_t clo =
        std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(c) - half);
    const std::ptrdiff_t chi =
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(is.c) - 1,
                                 static_cast<std::ptrdiff_t>(c) + half);
    double ss = 0;
    for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
      const double v = detail::to_d(in.at(0, static_cast<std::size_t>(cc), y, x));
      ss += v * v;
    }
    return k_ + alpha_ / static_cast<double>(size_) * ss;
  }

  std::size_t size_;
  double alpha_, beta_, k_;
};

/// Numerically stabilized softmax over the flattened input. Produces the
/// per-class confidence scores used by the SDC-10%/SDC-20% criteria.
/// The plan's softmax kernel computes it (max, exp-sum, normalize passes;
/// see kernel_scalar.h for the reference semantics).
template <typename T>
class Softmax final : public Layer<T> {
 public:
  using Layer<T>::Layer;
  LayerKind kind() const noexcept override { return LayerKind::kSoftmax; }
  Shape out_shape(const Shape& in) const override {
    return tensor::vec(in.size());
  }

  void backward(ConstTensorView<T> /*in*/, ConstTensorView<T> out,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T>,
                std::span<T>) const override {
    if (gin.shape() != out.shape()) gin.reshape(out.shape());
    double dot = 0;
    for (std::size_t j = 0; j < out.size(); ++j)
      dot += detail::to_d(gout[j]) * detail::to_d(out[j]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double oi = detail::to_d(out[i]);
      gin[i] = detail::from_d<T>(oi * (detail::to_d(gout[i]) - dot));
    }
  }
};

/// Global average pooling (NiN's classifier head): one mean per channel.
template <typename T>
class GlobalAvgPool final : public Layer<T> {
 public:
  using Layer<T>::Layer;
  LayerKind kind() const noexcept override { return LayerKind::kGlobalAvgPool; }
  Shape out_shape(const Shape& in) const override { return tensor::vec(in.c); }

  void backward(ConstTensorView<T> in, ConstTensorView<T>,
                const Tensor<T>& gout, Tensor<T>& gin, std::span<T>,
                std::span<T>) const override {
    const Shape& is = in.shape();
    if (gin.shape() != is) gin.reshape(is);
    const double inv = 1.0 / static_cast<double>(is.h * is.w);
    for (std::size_t c = 0; c < is.c; ++c) {
      const T g = detail::from_d<T>(detail::to_d(gout[c]) * inv);
      for (std::size_t y = 0; y < is.h; ++y)
        for (std::size_t x = 0; x < is.w; ++x) gin.at(0, c, y, x) = g;
    }
  }
};

}  // namespace dnnfi::dnn
