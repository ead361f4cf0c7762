// Layer interface. Layers are templated on the datapath numeric type T so
// that MAC arithmetic (including fixed-point saturation and binary16
// rounding) happens exactly as the modeled accelerator would perform it.
//
// The primitive compute interface works on TensorViews so the executor can
// run whole networks out of a preallocated Workspace arena; the Tensor
// overloads below are convenience wrappers that resize the destination and
// dispatch to the view path.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "dnnfi/dnn/fault_hooks.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/tensor/tensor.h"

namespace dnnfi::dnn {

using tensor::ConstTensorView;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

enum class LayerKind {
  kConv,
  kFullyConnected,
  kRelu,
  kMaxPool,
  kLrn,
  kSoftmax,
  kGlobalAvgPool,
};

constexpr const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:           return "conv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kRelu:           return "relu";
    case LayerKind::kMaxPool:        return "maxpool";
    case LayerKind::kLrn:            return "lrn";
    case LayerKind::kSoftmax:        return "softmax";
    case LayerKind::kGlobalAvgPool:  return "gavgpool";
  }
  return "?";
}

/// Abstract layer. Concrete layers live in layers.h.
template <typename T>
class Layer {
 public:
  Layer(std::string name, int block) : name_(std::move(name)), block_(block) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual LayerKind kind() const noexcept = 0;

  /// Layer instance name, e.g. "conv1".
  const std::string& name() const noexcept { return name_; }

  /// Logical paper-layer index (1-based): the conv/FC block this layer
  /// belongs to. ReLU/pool/LRN attach to the block of the preceding conv/FC.
  int block() const noexcept { return block_; }

  virtual Shape out_shape(const Shape& in) const = 0;

  /// Computes the fault-free `out` from `in`. `out` must already have
  /// shape out_shape(in.shape()); the caller (executor or Tensor wrapper) is
  /// responsible for sizing it. Thread-safe: forward is const,
  /// allocation-free, and uses no hidden mutable state. `in` and `out` must
  /// not alias.
  virtual void forward(ConstTensorView<T> in, TensorView<T> out) const = 0;

  /// Applies `faults` bit-exactly, assuming `out` already holds the
  /// fault-free output for `in` (patches only affected elements), and, if
  /// `rec` is non-null, documents what it did. The rewritten outputs' MAC
  /// chains run on `ks` (any set gives the same bits). Every fault site is
  /// a conv or FC layer, and only those override this; elsewhere it is a
  /// contract violation.
  virtual void apply_faults(ConstTensorView<T> /*in*/, TensorView<T> /*out*/,
                            const LayerFaults& /*faults*/,
                            InjectionRecord* /*rec*/,
                            const kernels::KernelSet<T>& /*ks*/) const {
    DNNFI_EXPECTS(false);
  }

  /// Tensor convenience wrappers: resize `out` then run the view path (on
  /// the scalar reference set, for apply_faults).
  /// Derived classes pull these in with `using Layer<T>::forward;`.
  void forward(const Tensor<T>& in, Tensor<T>& out) const {
    out.reshape(out_shape(in.shape()));
    forward(in.view(), out.view());
  }
  void apply_faults(const Tensor<T>& in, Tensor<T>& out,
                    const LayerFaults& faults, InjectionRecord* rec) const {
    DNNFI_EXPECTS(out.shape() == out_shape(in.shape()));
    apply_faults(in.view(), out.view(), faults, rec,
                 kernels::scalar_kernels<T>());
  }

  /// Backpropagation (used by the float trainer): given the layer input,
  /// its output, and dLoss/dOut, computes dLoss/dIn and accumulates weight /
  /// bias gradients. Layers without parameters ignore gw/gb.
  virtual void backward(const Tensor<T>& in, const Tensor<T>& out,
                        const Tensor<T>& gout, Tensor<T>& gin,
                        std::span<T> gw, std::span<T> gb) const = 0;

  /// Number of multiply-accumulate operations to process `in` (0 for
  /// non-MAC layers). Drives the datapath fault sampler's layer weighting.
  virtual std::size_t macs(const Shape& /*in*/) const { return 0; }

  /// Trainable parameter access (empty spans for parameter-free layers).
  virtual std::span<T> weights() { return {}; }
  virtual std::span<const T> weights() const { return {}; }
  virtual std::span<T> biases() { return {}; }
  virtual std::span<const T> biases() const { return {}; }

  bool has_params() const { return !weights().empty(); }

 private:
  std::string name_;
  int block_;
};

}  // namespace dnnfi::dnn
