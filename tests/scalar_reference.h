// Test-only fault-free reference forward. It runs a network (one_layer
// builds one of a single layer) through an ExecutionPlan built while the
// scalar kernel set is active, so the reference is always the scalar set
// and never the set under test, whatever DNNFI_KERNELS or set_active_mode
// selected for the process.
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

/// A second plan over `net`, on the scalar set. It reads the network's
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

/// A network of the first layer `b` holds alone, on `b`'s input shape, with
/// zero parameters (set them through update_params). Its plan's step 0 is
/// what apply_faults and backward take.
template <typename T>
Network<T> one_layer(const SpecBuilder& b) {
  NetworkSpec s = b.build();
  s.layers.resize(1);
  s.num_classes = shape_after(s.layers[0], s.input).size();
  return Network<T>(s);
}

}  // namespace dnnfi::dnn::scalar_ref
