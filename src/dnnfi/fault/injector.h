// Lowering from hardware fault descriptors to layer-level fault hooks, and
// the single-trial injection entry point: one faulty replay against the
// ActivationCache of the trial's input, the same path campaigns take.
//
// Fault sites address logical NCHW/OIHW coordinates (tensor indices, MAC
// step ordinals in (ci, ky, kx) order). The SIMD kernel engine's packed
// weight layout (DESIGN.md §10) is a kernel-private copy owned by the
// ExecutionPlan: injection, activation caching, and checkpointing never
// see it, so fault coordinates mean the same thing under every kernel set.
#pragma once

#include "dnnfi/accel/accelerator.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/network.h"
#include "dnnfi/fault/descriptor.h"

namespace dnnfi::fault {

/// Lowers a sampled hardware fault onto the layer-level hook the network
/// executes, through the geometry the fault was sampled on. `mac_layers`
/// maps MAC ordinals to NetworkSpec layer indices.
dnn::AppliedFault lower(
    const FaultDescriptor& f, const std::vector<std::size_t>& mac_layers,
    const accel::AcceleratorModel& model = accel::eyeriss_model());

/// Runs one faulty inference against the fault-free activations in `cache`
/// on the compiled engine. When `early_exit` is set, the run stops at the
/// first replayed layer whose output matches the cache bit-for-bit
/// (returning the cached final logits); pass false for a full replay, e.g.
/// when `observer` must see every layer after the fault. Zero heap
/// allocations after workspace warm-up: this is the campaign hot path.
/// Returns a view of the final output that aliases `ws` (or `cache`) —
/// read or copy it before the workspace runs again. `replay`, when
/// non-null, reports what actually executed.
template <typename T>
tensor::ConstTensorView<T> inject(
    const dnn::Executor<T>& exec, dnn::Workspace<T>& ws,
    const std::vector<std::size_t>& mac_layers,
    const dnn::ActivationCache<T>& cache, const FaultDescriptor& f,
    bool early_exit = true, dnn::ReplayInfo* replay = nullptr,
    dnn::InjectionRecord* rec = nullptr,
    const dnn::LayerObserver<T>* observer = nullptr,
    const accel::AcceleratorModel& model = accel::eyeriss_model()) {
  const dnn::AppliedFault af = lower(f, mac_layers, model);
  dnn::RunRequest<T> req;
  req.cache = &cache;
  req.fault = &af;
  req.record = rec;
  req.observer = observer;
  req.early_exit = early_exit;
  req.replay = replay;
  return exec.run(ws, req);
}

}  // namespace dnnfi::fault
