#include "dnnfi/dnn/executor.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "dnnfi/dnn/layers.h"

namespace dnnfi::dnn {

namespace {

using kernels::Region;

/// The whole of a CHW tensor.
Region whole(const Shape& s) { return {0, s.c, 0, s.h, 0, s.w}; }

/// The one element at flat index `i` of a CHW tensor.
Region point(const Shape& s, std::size_t i) {
  const std::size_t c = i / (s.h * s.w);
  const std::size_t y = i / s.w % s.h;
  const std::size_t x = i % s.w;
  return {c, c + 1, y, y + 1, x, x + 1};
}

/// Calls fn(offset, count) once per run of consecutive elements of `r` in a
/// CHW tensor shaped `s`: one run when r spans whole channel planes, one per
/// channel when it spans whole rows, else one per row.
template <class Fn>
void for_each_run(const Shape& s, const Region& r, Fn&& fn) {
  if (r.empty()) return;
  const std::size_t plane = s.h * s.w;
  if (r.x0 == 0 && r.x1 == s.w) {
    if (r.y0 == 0 && r.y1 == s.h) {
      fn(r.c0 * plane, (r.c1 - r.c0) * plane);
      return;
    }
    for (std::size_t c = r.c0; c < r.c1; ++c)
      fn(c * plane + r.y0 * s.w, (r.y1 - r.y0) * s.w);
    return;
  }
  for (std::size_t c = r.c0; c < r.c1; ++c)
    for (std::size_t y = r.y0; y < r.y1; ++y)
      fn(c * plane + y * s.w + r.x0, r.x1 - r.x0);
}

/// Outputs [lo, hi) along one axis of `n` outputs whose window (k taps at
/// stride s, after `pad` leading zeros) covers any input in [a, b), a < b.
std::pair<std::size_t, std::size_t> reach(std::size_t a, std::size_t b,
                                          std::size_t k, std::size_t s,
                                          std::size_t pad, std::size_t n) {
  const std::size_t lo =
      a + pad < k ? 0 : std::min(n, (a + pad - (k - 1) + s - 1) / s);
  const std::size_t hi = std::min(n, (b - 1 + pad) / s + 1);
  return {lo, std::max(lo, hi)};
}

/// The outputs of step `st` that read any input element in `in` (a box of
/// the step's input): conv, every output channel x the rows and columns
/// whose window (stride, pad) overlaps it; relu, `in` itself; LRN, `in`
/// with channels widened by size/2; maxpool, the windows that overlap it;
/// FC, avgpool and softmax, the whole output. Empty in, empty out.
template <typename T>
Region dirty_region(const PlanStep<T>& st, const Region& in) {
  if (in.empty()) return {};
  Region r = whole(st.out_shape);
  switch (st.kernel) {
    case StepKernel::kConv: {
      const kernels::ConvGeom& g = st.conv;
      std::tie(r.y0, r.y1) = reach(in.y0, in.y1, g.k, g.stride, g.pad, g.out_h);
      std::tie(r.x0, r.x1) = reach(in.x0, in.x1, g.k, g.stride, g.pad, g.out_w);
      break;
    }
    case StepKernel::kRelu:
      r = in;
      break;
    case StepKernel::kLrn: {
      const std::size_t half = st.lrn.size / 2;
      r = in;
      r.c0 = in.c0 > half ? in.c0 - half : 0;
      r.c1 = std::min(st.lrn.c, in.c1 + half);
      break;
    }
    case StepKernel::kMaxPool: {
      const kernels::PoolGeom& g = st.pool;
      r.c0 = in.c0;
      r.c1 = in.c1;
      std::tie(r.y0, r.y1) = reach(in.y0, in.y1, g.k, g.stride, 0, g.out_h);
      std::tie(r.x0, r.x1) = reach(in.x0, in.x1, g.k, g.stride, 0, g.out_w);
      break;
    }
    default:  // fc, avgpool, softmax: full fan-in
      break;
  }
  return r.empty() ? Region{} : r;
}

/// MACs step `st` executes over output region `r`: the region's share of a
/// conv, all of an FC (0 for an empty region or a MAC-free step).
template <typename T>
std::size_t region_macs(const PlanStep<T>& st, const Region& r) {
  if (r.empty()) return 0;
  return st.kernel == StepKernel::kConv ? r.size() * st.conv.steps()
                                        : st.macs;
}

/// Whether `a` and `b` hold the same bits at every element of `r`.
template <typename T>
bool region_equal(ConstTensorView<T> a, ConstTensorView<T> b,
                  const Region& r) {
  const T* const pa = a.data().data();
  const T* const pb = b.data().data();
  bool equal = true;
  for_each_run(a.shape(), r, [&](std::size_t off, std::size_t n) {
    equal = equal && std::memcmp(pa + off, pb + off, n * sizeof(T)) == 0;
  });
  return equal;
}

/// Bounding box of the elements whose bits differ between `a` and `b`
/// (empty when none do).
template <typename T>
Region mismatch_box(ConstTensorView<T> a, ConstTensorView<T> b) {
  const Shape& s = a.shape();
  const std::size_t plane = s.h * s.w;
  const T* const pa = a.data().data();
  const T* const pb = b.data().data();
  const auto differs = [&](std::size_t i) {
    return std::memcmp(pa + i, pb + i, sizeof(T)) != 0;
  };
  Region box{s.c, 0, s.h, 0, s.w, 0};
  for (std::size_t c = 0; c < s.c; ++c) {
    if (std::memcmp(pa + c * plane, pb + c * plane, plane * sizeof(T)) == 0)
      continue;
    box.c0 = std::min(box.c0, c);
    box.c1 = c + 1;
    for (std::size_t y = 0; y < s.h; ++y) {
      const std::size_t row = c * plane + y * s.w;
      if (std::memcmp(pa + row, pb + row, s.w * sizeof(T)) == 0) continue;
      std::size_t x0 = 0, x1 = s.w;
      while (!differs(row + x0)) ++x0;
      while (!differs(row + x1 - 1)) --x1;
      box.y0 = std::min(box.y0, y);
      box.y1 = std::max(box.y1, y + 1);
      box.x0 = std::min(box.x0, x0);
      box.x1 = std::max(box.x1, x1);
    }
  }
  return box.empty() ? Region{} : box;
}

}  // namespace

template <typename T>
ExecutionPlan<T>::ExecutionPlan(const Network<T>& net)
    : input_(net.spec().input), kset_(&kernels::active_kernels<T>()) {
  // Kernel routing: the active set is captured once (the plan-compile-time
  // selection) and each step's geometry and slot in the packed copy are
  // resolved here from the spec; repack binds the weights.
  const std::vector<LayerSpec>& layers = net.spec().layers;
  DNNFI_EXPECTS(!layers.empty());
  steps_.reserve(layers.size());
  const std::size_t lanes = kset_->pack_lanes;
  std::size_t packed_elems = 0;
  Shape shape = input_;
  input_elems_ = shape.size();
  for (const LayerSpec& ls : layers) {
    PlanStep<T> st;
    st.in_shape = shape;
    st.out_shape = shape_after(ls, shape);
    st.macs = st.out_shape.size() * mac_steps(ls, shape);
    total_macs_ += st.macs;
    buffer_elems_ = std::max(buffer_elems_, st.out_shape.size());
    input_elems_ = std::max(input_elems_, st.in_shape.size());
    shape = st.out_shape;
    const Shape& is = st.in_shape;
    const Shape& os = st.out_shape;
    switch (ls.kind) {
      case LayerKind::kConv:
        st.kernel = StepKernel::kConv;
        st.conv = {is.c, is.h, is.w, os.c, os.h, os.w,
                   ls.kernel, ls.stride, ls.pad};
        st.packed_n = kernels::packed_elems(st.conv.out_c, st.conv.steps(),
                                            lanes);
        break;
      case LayerKind::kFullyConnected:
        st.kernel = StepKernel::kFc;
        st.fc = {is.size(), ls.out_features};
        st.packed_n = kernels::packed_elems(st.fc.out, st.fc.in, lanes);
        break;
      case LayerKind::kRelu:
        st.kernel = StepKernel::kRelu;
        break;
      case LayerKind::kLrn:
        st.kernel = StepKernel::kLrn;
        st.lrn = {is.c,         is.h,        is.w,    ls.lrn_size,
                  ls.lrn_alpha, ls.lrn_beta, ls.lrn_k};
        break;
      case LayerKind::kMaxPool:
        st.kernel = StepKernel::kMaxPool;
        st.pool = {os.c, is.h, is.w, os.h, os.w, ls.pool_kernel,
                   ls.pool_stride};
        break;
      case LayerKind::kGlobalAvgPool:
        st.kernel = StepKernel::kAvgPool;
        break;
      case LayerKind::kSoftmax:
        st.kernel = StepKernel::kSoftmax;
        break;
    }
    st.packed_off = packed_elems;
    packed_elems += st.packed_n;
    steps_.push_back(st);
  }
  packed_.resize(packed_elems);
  repack(net.params());
}

template <typename T>
void ExecutionPlan<T>::repack(std::span<const LayerParams<T>> params) {
  DNNFI_EXPECTS(params.size() == steps_.size());
  const std::size_t lanes = kset_->pack_lanes;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    PlanStep<T>& st = steps_[i];
    if (st.kernel != StepKernel::kConv && st.kernel != StepKernel::kFc)
      continue;
    const bool conv = st.kernel == StepKernel::kConv;
    const std::size_t rows = conv ? st.conv.out_c : st.fc.out;
    const std::size_t cols = conv ? st.conv.steps() : st.fc.in;
    DNNFI_EXPECTS(params[i].weights.size() == rows * cols &&
                  params[i].biases.size() == rows);
    st.w = params[i].weights.data();
    st.bias = params[i].biases.data();
    if (st.packed_n == 0) continue;
    kernels::pack_rows(st.w, rows, cols, lanes, packed_.data() + st.packed_off);
    if constexpr (!numeric::numeric_traits<T>::is_floating)
      (conv ? st.conv.act_limit : st.fc.act_limit) =
          kernels::fixed_act_limit(st.w, rows, cols);
  }
}

template <typename T>
void ExecutionPlan<T>::exec_step(std::size_t i, ConstTensorView<T> in,
                                 TensorView<T> out, const T* packed,
                                 const kernels::Region* region) const {
  DNNFI_EXPECTS(packed == packed_data());
  const PlanStep<T>& st = steps_[i];
  const Region r = region == nullptr ? whole(st.out_shape) : *region;
  if (r.empty()) return;
  const T* const pk = packed == nullptr ? nullptr : packed + st.packed_off;
  const T* const src = in.data().data();
  T* const dst = out.data().data();
  switch (st.kernel) {
    case StepKernel::kConv:
      kset_->conv(st.conv, r, src, st.w, pk, st.bias, dst);
      return;
    case StepKernel::kFc:
      kset_->fc(st.fc, src, st.w, pk, st.bias, dst);
      return;
    case StepKernel::kRelu:
      for_each_run(st.out_shape, r, [&](std::size_t off, std::size_t n) {
        kset_->relu(src + off, dst + off, n);
      });
      return;
    case StepKernel::kLrn:
      kset_->lrn(st.lrn, r, src, dst);
      return;
    case StepKernel::kMaxPool:
      kset_->maxpool(st.pool, r, src, dst);
      return;
    case StepKernel::kAvgPool:
      kset_->avgpool(src, dst, st.in_shape.c, st.in_shape.h * st.in_shape.w);
      return;
    case StepKernel::kSoftmax:
      kset_->softmax(src, dst, in.size());
      return;
  }
}

template <typename T>
void ActivationCache<T>::build(const ExecutionPlan<T>& plan,
                               ConstTensorView<T> input) {
  bind(plan).copy_from(input);
  fill();
}

template <typename T>
TensorView<T> ActivationCache<T>::bind(const ExecutionPlan<T>& plan) {
  if (plan_ != &plan) {
    const auto& steps = plan.steps();
    plan_ = &plan;
    offsets_.resize(steps.size());
    std::size_t off = plan.input_shape().size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      offsets_[i] = off;
      off += steps[i].out_shape.size();
    }
    store_.resize(off);
  }
  return {plan.input_shape(), store_.data()};
}

template <typename T>
void ActivationCache<T>::fill() {
  DNNFI_EXPECTS(bound());
  const ExecutionPlan<T>& plan = *plan_;
  const auto& steps = plan.steps();
  // Layers write straight into their cache segment: no ping-pong, no
  // copies, and kernel calls identical to a plain Executor run.
  ConstTensorView<T> cur = input();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    TensorView<T> out{steps[i].out_shape, store_.data() + offsets_[i]};
    plan.exec_step(i, cur, out, plan.packed_data());
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
    plan_->exec_step(i, cur, out, plan_->packed_data());
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
  // Dirty-region replay (DESIGN.md §8) rides on early exit: each step
  // computes only the outputs the fault can reach, `r`, and takes the
  // golden activation everywhere else. A full replay (no early exit) runs
  // every step whole and stays the independent reference.
  const bool dirty = req.early_exit;
  const T* const packed = plan_->packed_data();
  const auto replay_step = [&](std::size_t i, ConstTensorView<T> in,
                               TensorView<T> out, const Region& r) {
    if (r == whole(steps[i].out_shape)) {
      plan_->exec_step(i, in, out, packed);
    } else {
      out.copy_from(g.act(i));
      plan_->exec_step(i, in, out, packed, &r);
    }
    info.macs += region_macs(steps[i], r);
  };

  TensorView<T> a = ws.out_buffer(0, steps[f.layer].out_shape);
  Region r = whole(steps[f.layer].out_shape);
  if (f.flip_layer_input) {
    // Global-buffer model: the corrupted ifmap word is read by every
    // consumer, so the target layer re-executes on flipped input — over
    // the outputs whose window holds the flipped word.
    TensorView<T> in = ws.patch_buffer(steps[f.layer].in_shape);
    in.copy_from(g.layer_input(f.layer));
    DNNFI_EXPECTS(f.input_index < in.size());
    in[f.input_index] = detail::storage_strike(
        in[f.input_index], f.input_op, f.input_storage, req.record);
    if (dirty)
      r = dirty_region(steps[f.layer], point(in.shape(), f.input_index));
    replay_step(f.layer, ConstTensorView<T>(in), a, r);
  } else {
    // Patch the golden output of the target layer with the fault's effect;
    // the patched elements' bounding box is the dirty region.
    a.copy_from(g.act(f.layer));
    apply_faults(steps[f.layer], g.layer_input(f.layer), a, f.faults,
                 req.record, plan_->kernel_set());
    if (dirty) r = mismatch_box<T>(a, g.act(f.layer));
  }
  if (req.observer != nullptr) (*req.observer)(f.layer, a);
  info.layers_run = 1;

  ConstTensorView<T> cur = a;
  std::size_t i = f.layer;
  // A replayed layer whose output matches the fault-free activation
  // bit-for-bit has erased the fault: every remaining layer is a
  // deterministic function of identical state, so the cached final output
  // IS the run's output and the suffix can be skipped entirely. Outside
  // the dirty region the output is golden by construction, so comparing
  // the region decides it.
  if (dirty && region_equal<T>(cur, g.act(i), r)) {
    info.masked = true;
  } else {
    unsigned parity = 1;
    for (i = f.layer + 1; i < steps.size(); ++i) {
      TensorView<T> out = ws.out_buffer(parity, steps[i].out_shape);
      r = dirty ? dirty_region(steps[i], r) : whole(steps[i].out_shape);
      replay_step(i, cur, out, r);
      if (req.observer != nullptr) (*req.observer)(i, out);
      cur = out;
      parity ^= 1U;
      ++info.layers_run;
      if (dirty && region_equal<T>(cur, g.act(i), r)) {
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
