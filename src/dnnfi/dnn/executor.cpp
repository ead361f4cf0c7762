#include "dnnfi/dnn/executor.h"

#include <algorithm>

#include "dnnfi/dnn/layers.h"

namespace dnnfi::dnn {

template <typename T>
ExecutionPlan<T>::ExecutionPlan(const Network<T>& net)
    : input_(net.spec().input) {
  DNNFI_EXPECTS(net.num_layers() > 0);
  steps_.reserve(net.num_layers());
  Shape shape = input_;
  input_elems_ = shape.size();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    PlanStep<T> st;
    st.layer = &net.layer(i);
    st.in_shape = shape;
    st.out_shape = st.layer->out_shape(shape);
    st.macs = st.layer->macs(shape);
    total_macs_ += st.macs;
    buffer_elems_ = std::max(buffer_elems_, st.out_shape.size());
    input_elems_ = std::max(input_elems_, st.in_shape.size());
    shape = st.out_shape;
    steps_.push_back(st);
  }
  // Kernel routing: capture the active set once (the plan-compile-time
  // selection) and pre-resolve each MAC layer's geometry, weight/bias
  // pointers, and slot in the packed weight region.
  kset_ = &kernels::active_kernels<T>();
  const std::size_t lanes = kset_->pack_lanes;
  for (auto& st : steps_) {
    switch (st.layer->kind()) {
      case LayerKind::kConv: {
        const auto* c = static_cast<const Conv2d<T>*>(st.layer);
        st.kernel = StepKernel::kConv;
        st.conv = c->geom(st.in_shape, st.out_shape);
        st.w = c->weights().data();
        st.bias = c->biases().data();
        st.packed_off = packed_elems_;
        st.packed_n = kernels::packed_elems(st.conv.out_c, st.conv.steps(),
                                            lanes);
        packed_elems_ += st.packed_n;
        break;
      }
      case LayerKind::kFullyConnected: {
        const auto* f = static_cast<const FullyConnected<T>*>(st.layer);
        st.kernel = StepKernel::kFc;
        st.fc = {f->in_features(), f->out_features()};
        st.w = f->weights().data();
        st.bias = f->biases().data();
        st.packed_off = packed_elems_;
        st.packed_n = kernels::packed_elems(st.fc.out, st.fc.in, lanes);
        packed_elems_ += st.packed_n;
        break;
      }
      case LayerKind::kRelu:
        st.kernel = StepKernel::kRelu;
        break;
      case LayerKind::kLrn: {
        const auto* l = static_cast<const Lrn<T>*>(st.layer);
        st.kernel = StepKernel::kLrn;
        st.lrn = {st.in_shape.c, st.in_shape.h, st.in_shape.w,
                  l->size(),     l->alpha(),    l->beta(),
                  l->bias_k()};
        break;
      }
      case LayerKind::kMaxPool: {
        const auto* m = static_cast<const MaxPool2d<T>*>(st.layer);
        st.kernel = StepKernel::kMaxPool;
        st.pool = {st.out_shape.c, st.in_shape.h,  st.in_shape.w,
                   st.out_shape.h, st.out_shape.w, m->kernel(),
                   m->stride()};
        break;
      }
      case LayerKind::kGlobalAvgPool:
        st.kernel = StepKernel::kAvgPool;
        break;
      case LayerKind::kSoftmax:
        st.kernel = StepKernel::kSoftmax;
        break;
      default:
        break;
    }
  }
}

template <typename T>
void ExecutionPlan<T>::pack_into(T* dst) const {
  const std::size_t lanes = kset_->pack_lanes;
  for (const auto& st : steps_) {
    if (st.packed_n == 0) continue;
    if (st.kernel == StepKernel::kConv)
      kernels::pack_rows(st.w, st.conv.out_c, st.conv.steps(), lanes,
                         dst + st.packed_off);
    else
      kernels::pack_rows(st.w, st.fc.out, st.fc.in, lanes,
                         dst + st.packed_off);
  }
}

template <typename T>
void ExecutionPlan<T>::exec_step(std::size_t i, ConstTensorView<T> in,
                                 TensorView<T> out, const T* packed) const {
  const PlanStep<T>& st = steps_[i];
  // Kernels that consume packed weights need the workspace copy; without it
  // (packed == null) MAC steps take the scalar reference path, which is
  // bit-identical under every exact set.
  const bool have_layout = packed != nullptr || kset_->pack_lanes == 0;
  switch (st.kernel) {
    case StepKernel::kConv:
      if (have_layout) {
        kset_->conv(st.conv, in.data().data(), st.w,
                    packed == nullptr ? nullptr : packed + st.packed_off,
                    st.bias, out.data().data());
        return;
      }
      break;
    case StepKernel::kFc:
      if (have_layout) {
        kset_->fc(st.fc, in.data().data(), st.w,
                  packed == nullptr ? nullptr : packed + st.packed_off,
                  st.bias, out.data().data());
        return;
      }
      break;
    case StepKernel::kRelu:
      kset_->relu(in.data().data(), out.data().data(), in.size());
      return;
    case StepKernel::kLrn:
      kset_->lrn(st.lrn, in.data().data(), out.data().data());
      return;
    case StepKernel::kMaxPool:
      kset_->maxpool(st.pool, in.data().data(), out.data().data());
      return;
    case StepKernel::kAvgPool:
      kset_->avgpool(in.data().data(), out.data().data(), st.in_shape.c,
                     st.in_shape.h * st.in_shape.w);
      return;
    case StepKernel::kSoftmax:
      kset_->softmax(in.data().data(), out.data().data(), in.size());
      return;
    case StepKernel::kNone:
      break;
  }
  st.layer->forward(in, out);
}

template <typename T>
void ActivationCache<T>::build(const ExecutionPlan<T>& plan,
                               ConstTensorView<T> input) {
  DNNFI_EXPECTS(input.shape() == plan.input_shape());
  const auto& steps = plan.steps();
  if (plan_ != &plan) {
    plan_ = &plan;
    offsets_.resize(steps.size());
    std::size_t off = plan.input_shape().size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      offsets_[i] = off;
      off += steps[i].out_shape.size();
    }
    store_.resize(off);
  }
  // Layers write straight into their cache segment: no ping-pong, no
  // copies, and kernel calls identical to a plain Executor run (a local
  // packed copy is interleaved here so the cache runs the plan's own kernel
  // set; cache builds are per-input setup work, not the faulty hot path).
  std::vector<T> packed;
  const T* pk = nullptr;
  if (plan.packed_elems() > 0) {
    packed.resize(plan.packed_elems());
    plan.pack_into(packed.data());
    pk = packed.data();
  }
  std::copy_n(input.data().data(), input.size(), store_.data());
  ConstTensorView<T> cur{plan.input_shape(), store_.data()};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    TensorView<T> out{steps[i].out_shape, store_.data() + offsets_[i]};
    plan.exec_step(i, cur, out, pk);
    cur = out;
  }
}

template <typename T>
ConstTensorView<T> Executor<T>::run(Workspace<T>& ws,
                                    const RunRequest<T>& req) const {
  ws.bind(*plan_);
  if (req.fault != nullptr) {
    DNNFI_EXPECTS(req.cache != nullptr);
    DNNFI_EXPECTS(req.cache->num_layers() == plan_->num_layers());
    return run_faulty(ws, req, *req.cache);
  }
  const auto& steps = plan_->steps();
  DNNFI_EXPECTS(req.input.shape() == plan_->input_shape());
  ConstTensorView<T> cur = req.input;
  unsigned parity = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    TensorView<T> out = ws.out_buffer(parity, steps[i].out_shape);
    plan_->exec_step(i, cur, out, ws.packed_data());
    if (req.observer != nullptr) (*req.observer)(i, out);
    cur = out;
    parity ^= 1U;
  }
  return cur;
}

template <typename T>
ConstTensorView<T> Executor<T>::run_faulty(Workspace<T>& ws,
                                           const RunRequest<T>& req,
                                           const ActivationCache<T>& g) const {
  const AppliedFault& f = *req.fault;
  const auto& steps = plan_->steps();
  DNNFI_EXPECTS(f.layer < steps.size());
  ReplayInfo info;
  info.fault_layer = f.layer;

  TensorView<T> a = ws.out_buffer(0, steps[f.layer].out_shape);
  if (f.flip_layer_input) {
    // Global-buffer model: the corrupted ifmap word is read by every
    // consumer, so the whole target layer re-executes on flipped input.
    TensorView<T> in = ws.patch_buffer(steps[f.layer].in_shape);
    in.copy_from(g.layer_input(f.layer));
    DNNFI_EXPECTS(f.input_index < in.size());
    const T before = in[f.input_index];
    const T after = detail::storage_apply(before, f.input_op, f.input_storage);
    in[f.input_index] = after;
    if (req.record != nullptr) {
      req.record->corrupted_before = detail::to_d(before);
      req.record->corrupted_after = detail::to_d(after);
      req.record->zero_to_one =
          detail::storage_apply_dir(before, f.input_op, f.input_storage);
      req.record->applied = true;
    }
    plan_->exec_step(f.layer, ConstTensorView<T>(in), a, ws.packed_data());
  } else {
    // Patch the golden output of the target layer with the fault's effect.
    a.copy_from(g.act(f.layer));
    steps[f.layer].layer->apply_faults(g.layer_input(f.layer), a, f.faults,
                                       req.record);
  }
  if (req.observer != nullptr) (*req.observer)(f.layer, a);
  info.layers_run = 1;

  ConstTensorView<T> cur = a;
  std::size_t i = f.layer;
  // A replayed layer whose output matches the fault-free activation
  // bit-for-bit has erased the fault: every remaining layer is a
  // deterministic function of identical state, so the cached final output
  // IS the run's output and the suffix can be skipped entirely.
  if (req.early_exit && tensor::bitwise_equal<T>(cur, g.act(i))) {
    info.masked = true;
  } else {
    unsigned parity = 1;
    for (i = f.layer + 1; i < steps.size(); ++i) {
      TensorView<T> out = ws.out_buffer(parity, steps[i].out_shape);
      plan_->exec_step(i, cur, out, ws.packed_data());
      if (req.observer != nullptr) (*req.observer)(i, out);
      cur = out;
      parity ^= 1U;
      ++info.layers_run;
      if (req.early_exit && tensor::bitwise_equal<T>(cur, g.act(i))) {
        info.masked = true;
        break;
      }
    }
  }
  if (info.masked) {
    info.masked_at = i;
    cur = g.output();
  }
  if (req.replay != nullptr) *req.replay = info;
  return cur;
}

template class ExecutionPlan<double>;
template class ExecutionPlan<float>;
template class ExecutionPlan<numeric::Half>;
template class ExecutionPlan<numeric::Fx32r26>;
template class ExecutionPlan<numeric::Fx32r10>;
template class ExecutionPlan<numeric::Fx16r10>;

template class ActivationCache<double>;
template class ActivationCache<float>;
template class ActivationCache<numeric::Half>;
template class ActivationCache<numeric::Fx32r26>;
template class ActivationCache<numeric::Fx32r10>;
template class ActivationCache<numeric::Fx16r10>;

template class Executor<double>;
template class Executor<float>;
template class Executor<numeric::Half>;
template class Executor<numeric::Fx32r26>;
template class Executor<numeric::Fx32r10>;
template class Executor<numeric::Fx16r10>;

}  // namespace dnnfi::dnn
