// The two per-layer computations besides the fault-free forward (which is
// exec_step of the network's ExecutionPlan): patching a conv or FC step's
// fault-struck outputs (apply_faults) and backpropagation for the float
// trainer (backward). Both read the layer's geometry and weights from its
// PlanStep.
//
// Numerics note: LRN, Softmax, and average pooling are computed at double
// internal precision and re-quantized to T on output. Real accelerators
// implement these in dedicated higher-precision units or on the host (the
// paper's fault model likewise excludes them as injection targets); what
// matters for error propagation is that their *masking* behaviour (value
// averaging, winner selection, range compression) acts on T-typed inputs,
// which it does here.
#pragma once

#include <optional>
#include <span>
#include <type_traits>

#include "dnnfi/dnn/executor.h"
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

/// Taps gathered per chain call: one output's activations are staged in
/// chunks of this many, so the buffer is bounded whatever the kernel volume.
inline constexpr std::size_t kTapChunk = 256;
}  // namespace detail

/// Applies `faults` to conv or FC step `st` bit-exactly, assuming `out`
/// already holds the fault-free output for `in` (patches only affected
/// elements), and, if `rec` is non-null, documents what it did. The
/// rewritten outputs' MAC chains run on `ks` (any set gives the same bits).
/// Allocation-free, so the executor can drive a whole campaign out of one
/// arena. Every fault site is a conv or FC step; any other is a contract
/// violation. (T comes from `st` alone, so tensors convert to the views.)
template <typename T>
void apply_faults(const PlanStep<T>& st,
                  std::type_identity_t<ConstTensorView<T>> in,
                  std::type_identity_t<TensorView<T>> out,
                  const LayerFaults& faults, InjectionRecord* rec,
                  const kernels::KernelSet<T>& ks);

/// Backpropagation through step `st` (used by the float trainer): given the
/// layer input, its output (both read in place, e.g. from an
/// ActivationCache), and dLoss/dOut, computes dLoss/dIn and accumulates
/// weight / bias gradients into gw / gb (empty for layers without
/// parameters). Instantiated for float and double only.
template <typename T>
void backward(const PlanStep<T>& st,
              std::type_identity_t<ConstTensorView<T>> in,
              std::type_identity_t<ConstTensorView<T>> out,
              const Tensor<T>& gout, Tensor<T>& gin,
              std::type_identity_t<std::span<T>> gw,
              std::type_identity_t<std::span<T>> gb);

}  // namespace dnnfi::dnn
