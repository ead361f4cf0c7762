// Compiled execution plans.
//
// ExecutionPlan<T> is built once per Network<T>: it pre-resolves every
// layer's input/output shape (spec.h shape_after), kernel geometry and MAC
// count from the NetworkSpec, and the arena high-water mark a forward pass
// needs, and it owns the one lane-interleaved weight copy its kernel set
// reads. Workspace<T> owns the arena (one contiguous
// vector, reused across runs). Executor<T> runs a plan out of a workspace:
// a plain forward pass, or a fault-patched partial re-execution, behind one
// RunRequest. ActivationCache<T> is the one fault-free reference: it holds
// the output of every layer boundary for one input in one contiguous block,
// so faulty replays seed from the struck layer, recompute only each step's
// dirty region — the channel x row x column box of outputs the fault can
// reach — and stop as soon as the fault's effect is erased (see DESIGN.md
// §8).
//
// Thread-safety contract: a plan is immutable between weight updates and
// may be shared by any number of threads; an Executor is a stateless handle
// over a plan and is likewise shareable; an ActivationCache is immutable
// after build() (or fill()) and likewise shareable. Weights change only through
// Network::update_params, which re-takes the plan's packed copy and must
// not overlap a run. A Workspace is mutable scratch — use one per thread
// (the campaign engine builds one per chunk of trials). After warm-up, a
// faulty run performs zero heap allocations.
//
// Buffer lifetime: the arena is laid out as [ping | pong | patch].
// Layer i reads buffer (i % 2) and writes buffer (1 - i % 2); a faulty
// replay step that computes only its dirty region first fills its buffer
// with the golden activation act(i), so the buffer always holds a full
// tensor (DESIGN.md §5, §8). The patch slot holds the flipped copy of a
// layer input for the global-buffer fault model. The view returned by run()
// aliases the arena and is valid only until the workspace is reused —
// except after a masked early exit, where it aliases the (stable)
// ActivationCache instead.
//
// Kernel dispatch: a plan captures kernels::active_kernels<T>() at
// construction and routes every conv / fully-connected / relu / lrn /
// maxpool / avgpool / softmax step through it (exec_step), optionally over
// one output region. Public tensors — activations, caches, checkpoints,
// fault injection coordinates — stay NCHW/OIHW; the packed weight copy
// (kernels.h — the plan-time layout transform) lives only in the plan.
#pragma once

#include <vector>

#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/network.h"

namespace dnnfi::dnn {

/// Which kernel a plan step routes through: one per LayerKind.
enum class StepKernel {
  kConv,
  kFc,
  kRelu,
  kLrn,
  kMaxPool,
  kAvgPool,
  kSoftmax
};

/// One layer of a compiled plan with its resolved shapes and the pre-
/// resolved kernel call (geometry, weight and bias pointers, packed-copy
/// placement). Avgpool's channel/plane split and softmax's length come
/// straight from in_shape at exec time, so only conv, FC, LRN and maxpool
/// carry geometry.
template <typename T>
struct PlanStep {
  Shape in_shape;
  Shape out_shape;
  std::size_t macs = 0;
  StepKernel kernel{};  ///< set for every step by the plan builder
  kernels::ConvGeom conv;
  kernels::FcGeom fc;
  kernels::LrnGeom lrn;
  kernels::PoolGeom pool;
  const T* w = nullptr;     ///< row-major weights (the Network's record)
  const T* bias = nullptr;
  std::size_t packed_off = 0;  ///< offset of this step in the packed copy
  std::size_t packed_n = 0;    ///< packed element count (0: nothing packed)
};

/// Forward schedule for one network topology, immutable between weight
/// updates. Holds raw pointers into the Network's parameter records — valid
/// as long as that Network is alive (their storage is stable across Network
/// moves) — and the packed weight copy, which only that Network re-takes.
template <typename T>
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const Network<T>& net);

  const std::vector<PlanStep<T>>& steps() const noexcept { return steps_; }
  std::size_t num_layers() const noexcept { return steps_.size(); }
  const Shape& input_shape() const noexcept { return input_; }
  const Shape& output_shape() const noexcept {
    return steps_.back().out_shape;
  }

  /// Largest layer-output element count (sizes each ping-pong buffer).
  std::size_t buffer_elems() const noexcept { return buffer_elems_; }
  /// Largest layer-input element count (sizes the patch buffer).
  std::size_t input_elems() const noexcept { return input_elems_; }
  /// Packed-weight element count (0 under the scalar set).
  std::size_t packed_elems() const noexcept { return packed_.size(); }
  /// The lane-interleaved copy of the MAC layers' current weights, or null
  /// when nothing is packed (the scalar set, the one with pack_lanes == 0,
  /// or no MAC layer with a full lane-block).
  const T* packed_data() const noexcept {
    return packed_.empty() ? nullptr : packed_.data();
  }
  /// Arena high-water mark: ping + pong + patch.
  std::size_t arena_elems() const noexcept {
    return 2 * buffer_elems_ + input_elems_;
  }

  std::size_t total_macs() const noexcept { return total_macs_; }

  /// The kernel set captured at plan build (kernels::active_kernels<T>() at
  /// that moment; later set_active_mode calls don't retarget this plan).
  const kernels::KernelSet<T>& kernel_set() const noexcept { return *kset_; }

  /// Runs step `i` on `in` -> `out` through the captured kernel set.
  /// Precondition: `packed == packed_data()`; the argument and
  /// Workspace::packed_data serve only bench/e2e/probe.cpp and go when it
  /// stops replaying steps itself (ROADMAP item 2). `region`, when
  /// non-null, limits conv / relu / LRN / maxpool to that box of the
  /// output (outputs outside it are not written); FC, avgpool and softmax
  /// always run whole, and an empty region runs nothing. Null: the whole
  /// output.
  void exec_step(std::size_t i, ConstTensorView<T> in, TensorView<T> out,
                 const T* packed,
                 const kernels::Region* region = nullptr) const;

 private:
  friend class Network<T>;

  /// Re-takes the weight and bias pointers from `params` (the Network's
  /// records, whose sizes must be unchanged) and the packed copy from their
  /// current weights.
  void repack(std::span<const LayerParams<T>> params);

  std::vector<PlanStep<T>> steps_;
  Shape input_;
  std::size_t buffer_elems_ = 0;
  std::size_t input_elems_ = 0;
  std::size_t total_macs_ = 0;
  const kernels::KernelSet<T>* kset_ = nullptr;
  std::vector<T> packed_;
};

/// Reusable per-thread scratch arena sized to a plan's high-water mark.
/// Never shrinks, so one workspace can serve plans of different sizes.
template <typename T>
class Workspace {
 public:
  Workspace() = default;
  explicit Workspace(const ExecutionPlan<T>& plan) { bind(plan); }

  /// Ensures capacity for `plan`. Idempotent; reallocates only when the
  /// plan needs more room than any previously bound plan.
  void bind(const ExecutionPlan<T>& plan) {
    plan_ = &plan;
    buffer_elems_ = std::max(buffer_elems_, plan.buffer_elems());
    input_elems_ = std::max(input_elems_, plan.input_elems());
    const std::size_t need = 2 * buffer_elems_ + input_elems_;
    if (arena_.size() < need) arena_.resize(need);
  }

  /// Ping (`parity` 0) or pong (`parity` 1) output buffer, shaped `s`.
  TensorView<T> out_buffer(unsigned parity, const Shape& s) {
    DNNFI_EXPECTS(parity < 2 && s.size() <= buffer_elems_);
    return {s, arena_.data() + parity * buffer_elems_};
  }

  /// Scratch copy of a layer input (global-buffer fault patching).
  TensorView<T> patch_buffer(const Shape& s) {
    DNNFI_EXPECTS(s.size() <= input_elems_);
    return {s, arena_.data() + 2 * buffer_elems_};
  }

  /// The bound plan's packed_data() (null before the first bind); kept
  /// only for bench/e2e/probe.cpp, see ExecutionPlan::exec_step.
  const T* packed_data() const noexcept {
    return plan_ == nullptr ? nullptr : plan_->packed_data();
  }

  std::size_t arena_bytes() const noexcept {
    return arena_.size() * sizeof(T);
  }

 private:
  std::vector<T> arena_;
  std::size_t buffer_elems_ = 0;
  std::size_t input_elems_ = 0;
  const ExecutionPlan<T>* plan_ = nullptr;  ///< last bound plan
};

/// Immutable fault-free activations of one input under one plan: the
/// network input plus every layer's output, packed into a single
/// contiguous block whose layout comes from the plan's step metadata (one
/// allocation per cache; rebuilds against the same plan reuse it). This is
/// the golden source of incremental fault replay: a faulty run seeds the
/// workspace from act(fault_layer - 1) for free and compares each replayed
/// layer against act(i) to detect that the fault has been masked.
template <typename T>
class ActivationCache {
 public:
  ActivationCache() = default;
  ActivationCache(const ExecutionPlan<T>& plan, ConstTensorView<T> input) {
    build(plan, input);
  }

  /// Runs the fault-free forward pass for `input`, storing every layer
  /// boundary. Layer outputs are bit-identical to an Executor plain run
  /// (same exec_step calls on the same values, in the same order).
  void build(const ExecutionPlan<T>& plan, ConstTensorView<T> input);

  /// build() in two halves, so a caller can allocate on its own thread and
  /// compute on others (Campaign does, so pool threads allocate no cache
  /// memory in malloc arenas of their own). bind() lays the store out for
  /// `plan`, allocates it zero-filled, and returns the input slot for the
  /// caller to write; fill() then runs the forward pass from that slot and
  /// allocates nothing.
  TensorView<T> bind(const ExecutionPlan<T>& plan);
  void fill();

  bool bound() const noexcept { return plan_ != nullptr; }
  std::size_t num_layers() const noexcept {
    return plan_ == nullptr ? 0 : plan_->num_layers();
  }

  /// The network input the cache was built from.
  ConstTensorView<T> input() const {
    DNNFI_EXPECTS(bound());
    return {plan_->input_shape(), store_.data()};
  }
  /// Fault-free output of layer `i`.
  ConstTensorView<T> act(std::size_t i) const {
    DNNFI_EXPECTS(bound() && i < num_layers());
    return {plan_->steps()[i].out_shape, store_.data() + offsets_[i]};
  }
  /// Fault-free input of layer `i` (the previous layer's output).
  ConstTensorView<T> layer_input(std::size_t i) const {
    return i == 0 ? input() : act(i - 1);
  }
  /// Fault-free final output (the cached logits a masked trial emits).
  ConstTensorView<T> output() const { return act(num_layers() - 1); }

 private:
  const ExecutionPlan<T>* plan_ = nullptr;
  std::vector<std::size_t> offsets_;  ///< start of act(i); input sits at 0
  std::vector<T> store_;
};

/// What an incremental faulty run actually executed (RunRequest::replay).
struct ReplayInfo {
  std::size_t fault_layer = 0;
  std::size_t layers_run = 0;  ///< layers executed, fault layer included
  /// MACs the replayed kernel steps executed: the dirty regions of the
  /// fault layer (global-buffer model only; a patched fault layer's own
  /// recompute is not counted) and of every later layer that ran.
  std::size_t macs = 0;
  /// Early exit fired: a replayed layer's output matched the fault-free
  /// cache bit-for-bit, so the run stopped and returned the cached final
  /// output (which the remaining layers would have reproduced exactly).
  bool masked = false;
  std::size_t masked_at = 0;  ///< layer whose output matched (iff masked)
};

/// One forward run, fully described. Exactly one of two modes:
///  - plain: `input` set; `observer`, when non-null, sees every layer
///    output.
///  - faulty: `fault` plus the golden `cache` set; only the fault layer
///    (patched) and the layers after it execute. `observer` sees recomputed
///    layers only, always as full tensors. With `early_exit`, each replayed
///    step computes only its dirty region (the rest is the cached golden
///    activation) and the run stops at the first replayed layer whose
///    output matches the cache bit-for-bit, returning the cached final
///    output; without it every step runs whole. `replay`, when non-null,
///    reports what actually ran.
template <typename T>
struct RunRequest {
  ConstTensorView<T> input;
  const ActivationCache<T>* cache = nullptr;
  const AppliedFault* fault = nullptr;
  InjectionRecord* record = nullptr;
  const LayerObserver<T>* observer = nullptr;
  bool early_exit = false;
  ReplayInfo* replay = nullptr;
};

/// Stateless runner for a compiled plan. Cheap to copy; safe to share
/// across threads (each thread supplies its own Workspace).
template <typename T>
class Executor {
 public:
  explicit Executor(const ExecutionPlan<T>& plan) : plan_(&plan) {}

  const ExecutionPlan<T>& plan() const noexcept { return *plan_; }

  /// Runs the request out of `ws` and returns a view of the final layer
  /// output. The view aliases the workspace arena (or, after a masked
  /// early exit, the activation cache): copy it (or read it) before the
  /// workspace runs again.
  ConstTensorView<T> run(Workspace<T>& ws, const RunRequest<T>& req) const;

 private:
  ConstTensorView<T> run_faulty(Workspace<T>& ws, const RunRequest<T>& req,
                                const ActivationCache<T>& g) const;

  const ExecutionPlan<T>* plan_;
};

extern template class ExecutionPlan<double>;
extern template class ExecutionPlan<float>;
extern template class ExecutionPlan<numeric::Half>;
extern template class ExecutionPlan<numeric::Fx32r26>;
extern template class ExecutionPlan<numeric::Fx32r10>;
extern template class ExecutionPlan<numeric::Fx16r10>;

extern template class ActivationCache<double>;
extern template class ActivationCache<float>;
extern template class ActivationCache<numeric::Half>;
extern template class ActivationCache<numeric::Fx32r26>;
extern template class ActivationCache<numeric::Fx32r10>;
extern template class ActivationCache<numeric::Fx16r10>;

extern template class Executor<double>;
extern template class Executor<float>;
extern template class Executor<numeric::Half>;
extern template class Executor<numeric::Fx32r26>;
extern template class Executor<numeric::Fx32r10>;
extern template class Executor<numeric::Fx16r10>;

}  // namespace dnnfi::dnn
