// Layer interface. Layers are templated on the datapath numeric type T so
// that MAC arithmetic (including fixed-point saturation and binary16
// rounding) happens exactly as the modeled accelerator would perform it.
//
// A layer describes itself (shape, MACs, parameters) and owns the two
// per-layer computations the plan cannot do for it: patching fault-struck
// outputs (apply_faults) and backpropagation (backward). Its fault-free
// forward pass is a step of the network's ExecutionPlan (executor.h), the
// one route to the kernels for campaigns and the trainer alike.
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

  /// Backpropagation (used by the float trainer): given the layer input,
  /// its output (both read in place, e.g. from an ActivationCache), and
  /// dLoss/dOut, computes dLoss/dIn and accumulates weight / bias
  /// gradients. Layers without parameters ignore gw/gb.
  virtual void backward(ConstTensorView<T> in, ConstTensorView<T> out,
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
