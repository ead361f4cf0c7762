// Test-only fault-free reference forward. It runs a network, or one layer,
// through an ExecutionPlan built while the scalar kernel set is active, so
// the reference is always the scalar set and never the set under test,
// whatever DNNFI_KERNELS or set_active_mode selected for the process.
#pragma once

#include <algorithm>

#include "dnnfi/dnn/executor.h"
#include "kernel_mode_guard.h"

namespace dnnfi::dnn::scalar_ref {

/// Makes the scalar set active for the scope's lifetime (plans built
/// meanwhile capture it), then restores the mode that was active before.
class ModeScope {
 public:
  ModeScope() { kernels::set_active_mode("scalar"); }

 private:
  kernels::ModeGuard restore_;  // constructed first: captures the old mode
};

/// A second plan over `net`, on the scalar set. It reads the layers'
/// weights in place, so it follows later update_params calls.
template <typename T>
ExecutionPlan<T> plan(const Network<T>& net) {
  const ModeScope scalar;
  return ExecutionPlan<T>(net);
}

/// Step `i` of `p`, run whole on `in` into a new tensor.
template <typename T>
tensor::Tensor<T> step(const ExecutionPlan<T>& p, std::size_t i,
                       const tensor::Tensor<T>& in) {
  tensor::Tensor<T> out(p.steps()[i].out_shape);
  p.exec_step(i, in, out.view(), p.packed_data());
  return out;
}

/// `net`'s fault-free output for `input`, on the scalar set.
template <typename T>
tensor::Tensor<T> forward(const Network<T>& net,
                          const tensor::Tensor<T>& input) {
  const ExecutionPlan<T> p = plan(net);
  tensor::Tensor<T> out;
  out.assign(ActivationCache<T>(p, input).output());
  return out;
}

/// `layer`'s fault-free output for `in`, on the scalar set: the layer, with
/// a copy of its parameters, run as a one-layer network.
template <typename T>
tensor::Tensor<T> forward(const Layer<T>& layer,
                          const tensor::Tensor<T>& in) {
  LayerSpec ls;
  ls.kind = layer.kind();
  ls.name = layer.name();
  ls.block = layer.block();
  if (const auto* c = dynamic_cast<const Conv2d<T>*>(&layer)) {
    ls.out_channels = c->out_channels();
    ls.kernel = c->kernel();
    ls.stride = c->stride();
    ls.pad = c->pad();
  } else if (const auto* f = dynamic_cast<const FullyConnected<T>*>(&layer)) {
    ls.out_features = f->out_features();
  } else if (const auto* m = dynamic_cast<const MaxPool2d<T>*>(&layer)) {
    ls.pool_kernel = m->kernel();
    ls.pool_stride = m->stride();
  } else if (const auto* l = dynamic_cast<const Lrn<T>*>(&layer)) {
    ls.lrn_size = l->size();
    ls.lrn_alpha = l->alpha();
    ls.lrn_beta = l->beta();
    ls.lrn_k = l->bias_k();
  }
  const Shape out_shape = layer.out_shape(in.shape());
  const ModeScope scalar;
  Network<T> net(
      NetworkSpec{"single-layer", in.shape(), out_shape.size(), {ls}});
  net.update_params([&](auto layers) {
    std::ranges::copy(layer.weights(), layers[0]->weights().begin());
    std::ranges::copy(layer.biases(), layers[0]->biases().begin());
  });
  return net.forward(in);
}

}  // namespace dnnfi::dnn::scalar_ref
