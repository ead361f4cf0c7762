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
// All forward/apply_faults paths are allocation-free: they write into a
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
}  // namespace detail

/// 2-D convolution with square kernels, zero padding, and per-output-channel
/// bias. MAC order (the `step` coordinate of MacFault) is row-major over
/// (ci, ky, kx); padded taps execute with a zero activation, as a spatial
/// accelerator's PE array would.
template <typename T>
class Conv2d final : public Layer<T> {
 public:
  using Layer<T>::forward;
  using Layer<T>::apply_faults;

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

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    const Shape os = out.shape();
    DNNFI_EXPECTS(os == out_shape(in.shape()));
    // Fault-free pass through the kernel registry (the scalar reference is
    // bit-identical to compute_one with no fault and no overrides; SIMD
    // sets are bit-identical to the scalar reference). The compiled
    // Executor path routes through ExecutionPlan::exec_step instead, which
    // adds the packed-weight layout.
    kernels::conv_forward<T>(geom(in.shape(), os), in.data().data(),
                             weights_.data().data(), bias_.data(),
                             out.data().data());
  }

  void apply_faults(ConstTensorView<T> in, TensorView<T> out,
                    const LayerFaults& faults,
                    InjectionRecord* rec) const override {
    const Shape os = out.shape();
    if (faults.mac) {
      const MacFault& f = *faults.mac;
      DNNFI_EXPECTS(f.out_index < out.size() && f.step < steps());
      const auto [co, oy, ox] = unflatten(os, f.out_index);
      const T before = out[f.out_index];
      const T after = compute_one(in, co, oy, ox, &f, rec, kNoOverride,
                                  kNoOverride);
      out[f.out_index] = after;
      note_act(rec, before, after);
    }
    if (faults.weight) {
      const WeightFault& f = *faults.weight;
      DNNFI_EXPECTS(f.weight_index < weights_.size());
      const T w0 = weights_[f.weight_index];
      const T w1 = detail::storage_apply(w0, f.op, f.storage);
      if (rec != nullptr) {
        rec->corrupted_before = detail::to_d(w0);
        rec->corrupted_after = detail::to_d(w1);
        rec->zero_to_one = detail::storage_apply_dir(w0, f.op, f.storage);
        rec->applied = true;
      }
      // The corrupted weight feeds every MAC of its output channel.
      const std::size_t co = f.weight_index / steps();
      const Override ov{f.weight_index, w1};
      const T rep_before = out.at(0, co, 0, 0);
      for (std::size_t oy = 0; oy < os.h; ++oy)
        for (std::size_t ox = 0; ox < os.w; ++ox)
          out.at(0, co, oy, ox) =
              compute_one(in, co, oy, ox, nullptr, nullptr, ov, kNoOverride);
      note_act(rec, rep_before, out.at(0, co, 0, 0));
    }
    if (faults.scoped_input) {
      const ScopedInputFault& f = *faults.scoped_input;
      DNNFI_EXPECTS(f.input_index < in.size());
      DNNFI_EXPECTS(f.out_channel < os.c && f.out_row < os.h);
      const T v0 = in[f.input_index];
      const T v1 = detail::storage_apply(v0, f.op, f.storage);
      if (rec != nullptr) {
        rec->corrupted_before = detail::to_d(v0);
        rec->corrupted_after = detail::to_d(v1);
        rec->zero_to_one = detail::storage_apply_dir(v0, f.op, f.storage);
        rec->applied = true;
      }
      const Override ov{f.input_index, v1};
      const T rep_before = out.at(0, f.out_channel, f.out_row, 0);
      for (std::size_t ox = 0; ox < os.w; ++ox)
        out.at(0, f.out_channel, f.out_row, ox) = compute_one(
            in, f.out_channel, f.out_row, ox, nullptr, nullptr, kNoOverride, ov);
      note_act(rec, rep_before, out.at(0, f.out_channel, f.out_row, 0));
    }
    if (faults.column) {
      // Weight-stationary systolic column propagation (accel::SystolicArray):
      // every output element still flowing through the struck column after
      // the strike re-accumulates through the corrupt partial-sum chain.
      const ColumnFault& f = *faults.column;
      DNNFI_EXPECTS(f.step < steps() && f.cols > 0 && f.first_out < out.size());
      const std::size_t plane = os.h * os.w;
      bool first = true;
      for (std::size_t e = f.first_out; e < out.size(); ++e) {
        if ((e / plane) % f.cols != f.col) continue;
        MacFault mf;
        mf.out_index = e;
        mf.step = f.step;
        mf.site = MacSite::kAccumulator;
        mf.op = f.op;
        const auto [co, oy, ox] = unflatten(os, e);
        const T before = out[e];
        const T after = compute_one(in, co, oy, ox, &mf,
                                    first ? rec : nullptr, kNoOverride,
                                    kNoOverride);
        out[e] = after;
        if (first) note_act(rec, before, after);
        first = false;
      }
    }
  }

  void backward(const Tensor<T>& in, const Tensor<T>& /*out*/,
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
  struct Override {
    std::size_t index;
    T value;
  };
  static constexpr std::optional<Override> kNoOverride = std::nullopt;

  static std::tuple<std::size_t, std::size_t, std::size_t> unflatten(
      const Shape& os, std::size_t flat) {
    const std::size_t ox = flat % os.w;
    const std::size_t oy = (flat / os.w) % os.h;
    const std::size_t co = flat / (os.w * os.h);
    return {co, oy, ox};
  }

  static void note_act(InjectionRecord* rec, T before, T after) {
    if (rec == nullptr) return;
    rec->act_before = detail::to_d(before);
    rec->act_after = detail::to_d(after);
  }

  /// Computes a single output element, optionally applying a MacFault and/or
  /// weight/input overrides. This is the reference MAC pipeline: every
  /// product and accumulation is performed in T.
  T compute_one(ConstTensorView<T> in, std::size_t co, std::size_t oy,
                std::size_t ox, const MacFault* mf, InjectionRecord* rec,
                const std::optional<Override>& w_over,
                const std::optional<Override>& in_over) const {
    const Shape& is = in.shape();
    T acc{};
    std::size_t step = 0;
    for (std::size_t ci = 0; ci < in_c_; ++ci) {
      for (std::size_t ky = 0; ky < k_; ++ky) {
        for (std::size_t kx = 0; kx < k_; ++kx, ++step) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(pad_);
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
              static_cast<std::ptrdiff_t>(pad_);
          const bool in_bounds = iy >= 0 &&
                                 iy < static_cast<std::ptrdiff_t>(is.h) &&
                                 ix >= 0 &&
                                 ix < static_cast<std::ptrdiff_t>(is.w);
          std::size_t ii = 0;
          T act{};
          if (in_bounds) {
            ii = is.index(0, ci, static_cast<std::size_t>(iy),
                          static_cast<std::size_t>(ix));
            act = in[ii];
            if (in_over && in_over->index == ii) act = in_over->value;
          }
          const std::size_t wi = weights_.shape().index(co, ci, ky, kx);
          T w = weights_[wi];
          if (w_over && w_over->index == wi) w = w_over->value;

          const bool fault_here = (mf != nullptr) && (step == mf->step);
          if (fault_here && mf->site == MacSite::kOperandAct) {
            record_flip(rec, act, mf->op);
            act = fault::apply_op(act, mf->op);
          }
          if (fault_here && mf->site == MacSite::kOperandWeight) {
            record_flip(rec, w, mf->op);
            w = fault::apply_op(w, mf->op);
          }
          T product = w * act;
          if (fault_here && mf->site == MacSite::kProduct) {
            record_flip(rec, product, mf->op);
            product = fault::apply_op(product, mf->op);
          }
          acc += product;
          if (fault_here && mf->site == MacSite::kAccumulator) {
            record_flip(rec, acc, mf->op);
            acc = fault::apply_op(acc, mf->op);
          }
        }
      }
    }
    acc += bias_[co];
    return acc;
  }

  static void record_flip(InjectionRecord* rec, T value,
                          const fault::FaultOp& op) {
    if (rec == nullptr) return;
    rec->corrupted_before = detail::to_d(value);
    rec->corrupted_after = detail::to_d(fault::apply_op(value, op));
    rec->zero_to_one = fault::op_zero_to_one(value, op);
    rec->applied = true;
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
  using Layer<T>::forward;
  using Layer<T>::apply_faults;

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

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    DNNFI_EXPECTS(in.size() == in_ && out.size() == out_);
    // Fault-free pass through the kernel registry (the scalar reference is
    // bit-identical to compute_one without fault or overrides).
    kernels::fc_forward<T>({in_, out_}, in.data().data(),
                           weights_.data().data(), bias_.data(),
                           out.data().data());
  }

  void apply_faults(ConstTensorView<T> in, TensorView<T> out,
                    const LayerFaults& faults,
                    InjectionRecord* rec) const override {
    if (faults.mac) {
      const MacFault& f = *faults.mac;
      DNNFI_EXPECTS(f.out_index < out_ && f.step < in_);
      const T before = out[f.out_index];
      out[f.out_index] =
          compute_one(in, f.out_index, &f, rec, std::nullopt, std::nullopt);
      note_act(rec, before, out[f.out_index]);
    }
    if (faults.weight) {
      const WeightFault& f = *faults.weight;
      DNNFI_EXPECTS(f.weight_index < weights_.size());
      const std::size_t o = f.weight_index / in_;
      const T w1 =
          detail::storage_apply(weights_[f.weight_index], f.op, f.storage);
      if (rec != nullptr) {
        rec->corrupted_before = detail::to_d(weights_[f.weight_index]);
        rec->corrupted_after = detail::to_d(w1);
        rec->zero_to_one = detail::storage_apply_dir(weights_[f.weight_index],
                                                     f.op, f.storage);
        rec->applied = true;
      }
      const T before = out[o];
      out[o] = compute_one(in, o, nullptr, nullptr,
                           Override{f.weight_index, w1}, std::nullopt);
      note_act(rec, before, out[o]);
    }
    if (faults.scoped_input) {
      const ScopedInputFault& f = *faults.scoped_input;
      DNNFI_EXPECTS(f.input_index < in.size());
      DNNFI_EXPECTS(f.out_channel < out_);
      const T v1 = detail::storage_apply(in[f.input_index], f.op, f.storage);
      if (rec != nullptr) {
        rec->corrupted_before = detail::to_d(in[f.input_index]);
        rec->corrupted_after = detail::to_d(v1);
        rec->zero_to_one =
            detail::storage_apply_dir(in[f.input_index], f.op, f.storage);
        rec->applied = true;
      }
      const T before = out[f.out_channel];
      out[f.out_channel] = compute_one(in, f.out_channel, nullptr, nullptr,
                                       std::nullopt, Override{f.input_index, v1});
      note_act(rec, before, out[f.out_channel]);
    }
    if (faults.column) {
      // Systolic column propagation: FC output o maps onto column o % cols.
      const ColumnFault& f = *faults.column;
      DNNFI_EXPECTS(f.step < in_ && f.cols > 0 && f.first_out < out_);
      bool first = true;
      for (std::size_t o = f.first_out; o < out_; ++o) {
        if (o % f.cols != f.col) continue;
        MacFault mf;
        mf.out_index = o;
        mf.step = f.step;
        mf.site = MacSite::kAccumulator;
        mf.op = f.op;
        const T before = out[o];
        out[o] = compute_one(in, o, &mf, first ? rec : nullptr, std::nullopt,
                             std::nullopt);
        if (first) note_act(rec, before, out[o]);
        first = false;
      }
    }
  }

  void backward(const Tensor<T>& in, const Tensor<T>& /*out*/,
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
  struct Override {
    std::size_t index;
    T value;
  };

  static void note_act(InjectionRecord* rec, T before, T after) {
    if (rec == nullptr) return;
    rec->act_before = detail::to_d(before);
    rec->act_after = detail::to_d(after);
  }

  T compute_one(ConstTensorView<T> in, std::size_t o, const MacFault* mf,
                InjectionRecord* rec, const std::optional<Override>& w_over,
                const std::optional<Override>& in_over) const {
    T acc{};
    const std::size_t base = o * in_;
    for (std::size_t i = 0; i < in_; ++i) {
      T act = in[i];
      if (in_over && in_over->index == i) act = in_over->value;
      T w = weights_[base + i];
      if (w_over && w_over->index == base + i) w = w_over->value;
      const bool fault_here = (mf != nullptr) && (i == mf->step);
      if (fault_here && mf->site == MacSite::kOperandAct) {
        record_flip(rec, act, mf->op);
        act = fault::apply_op(act, mf->op);
      }
      if (fault_here && mf->site == MacSite::kOperandWeight) {
        record_flip(rec, w, mf->op);
        w = fault::apply_op(w, mf->op);
      }
      T product = w * act;
      if (fault_here && mf->site == MacSite::kProduct) {
        record_flip(rec, product, mf->op);
        product = fault::apply_op(product, mf->op);
      }
      acc += product;
      if (fault_here && mf->site == MacSite::kAccumulator) {
        record_flip(rec, acc, mf->op);
        acc = fault::apply_op(acc, mf->op);
      }
    }
    acc += bias_[o];
    return acc;
  }

  static void record_flip(InjectionRecord* rec, T value,
                          const fault::FaultOp& op) {
    if (rec == nullptr) return;
    rec->corrupted_before = detail::to_d(value);
    rec->corrupted_after = detail::to_d(fault::apply_op(value, op));
    rec->zero_to_one = fault::op_zero_to_one(value, op);
    rec->applied = true;
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
  using Layer<T>::forward;
  LayerKind kind() const noexcept override { return LayerKind::kRelu; }
  Shape out_shape(const Shape& in) const override { return in; }

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    DNNFI_EXPECTS(out.size() == in.size());
    kernels::relu_forward<T>(in.data().data(), out.data().data(), in.size());
  }

  void backward(const Tensor<T>& in, const Tensor<T>&, const Tensor<T>& gout,
                Tensor<T>& gin, std::span<T>, std::span<T>) const override {
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
  using Layer<T>::forward;

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

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    const Shape& is = in.shape();
    const Shape os = out.shape();
    DNNFI_EXPECTS(os == out_shape(is));
    kernels::maxpool_forward<T>(
        kernels::PoolGeom{os.c, is.h, is.w, os.h, os.w, k_, stride_},
        in.data().data(), out.data().data());
  }

  void backward(const Tensor<T>& in, const Tensor<T>&, const Tensor<T>& gout,
                Tensor<T>& gin, std::span<T>, std::span<T>) const override {
    const Shape os = gout.shape();
    if (gin.shape() != in.shape()) gin.reshape(in.shape());
    gin.fill(T{});
    for (std::size_t c = 0; c < os.c; ++c)
      for (std::size_t oy = 0; oy < os.h; ++oy)
        for (std::size_t ox = 0; ox < os.w; ++ox) {
          // Route gradient to the window argmax (first maximum wins ties,
          // matching forward's strict-greater comparison).
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
  using Layer<T>::forward;

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

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    const Shape& is = in.shape();
    DNNFI_EXPECTS(out.size() == in.size());
    kernels::lrn_forward<T>(
        kernels::LrnGeom{is.c, is.h, is.w, size_, alpha_, beta_, k_},
        in.data().data(), out.data().data());
  }

  void backward(const Tensor<T>& in, const Tensor<T>&, const Tensor<T>& gout,
                Tensor<T>& gin, std::span<T>, std::span<T>) const override {
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
/// Forward dispatches to the kernel registry (max, exp-sum, normalize
/// passes; see kernel_scalar.h for the reference semantics).
template <typename T>
class Softmax final : public Layer<T> {
 public:
  using Layer<T>::Layer;
  using Layer<T>::forward;
  LayerKind kind() const noexcept override { return LayerKind::kSoftmax; }
  Shape out_shape(const Shape& in) const override {
    return tensor::vec(in.size());
  }

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    DNNFI_EXPECTS(out.size() == in.size());
    kernels::softmax_forward<T>(in.data().data(), out.data().data(),
                                in.size());
  }

  void backward(const Tensor<T>& /*in*/, const Tensor<T>& out,
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
  using Layer<T>::forward;
  LayerKind kind() const noexcept override { return LayerKind::kGlobalAvgPool; }
  Shape out_shape(const Shape& in) const override { return tensor::vec(in.c); }

  void forward(ConstTensorView<T> in, TensorView<T> out) const override {
    const Shape& is = in.shape();
    DNNFI_EXPECTS(out.size() == is.c);
    kernels::avgpool_forward<T>(in.data().data(), out.data().data(), is.c,
                                is.h * is.w);
  }

  void backward(const Tensor<T>& in, const Tensor<T>&, const Tensor<T>& gout,
                Tensor<T>& gin, std::span<T>, std::span<T>) const override {
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
