// Network<T>: a NetworkSpec plus one parameter record per layer, executing
// in datapath type T. Conv/FC perform every MAC in T (fixed-point
// saturation and binary16 rounding included, as the modeled accelerator
// would) and are the layers that accept hardware fault hooks; the other
// layers model fixed-function or host-side units.
//
// Execution is delegated to the compiled-plan engine (executor.h): each
// Network builds an ExecutionPlan once at construction, and forward /
// classify are thin wrappers that run the plan out of a local Workspace.
// Fault injection goes through the plan directly: an ActivationCache holds
// the fault-free activations of one input, and a faulty Executor run
// re-executes only the struck layer (patching just the ACTs the fault
// reaches) and the layers after it. Hot paths (the campaign engine) reuse
// one Workspace per thread across many trials. Weights change only through
// update_params, which keeps the plan's packed weight copy in step.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dnnfi/dnn/fault_hooks.h"
#include "dnnfi/dnn/spec.h"
#include "dnnfi/numeric/dtype.h"

namespace dnnfi::dnn {

template <typename T>
class ExecutionPlan;

/// Callback observing per-layer activations: (layer index, output view).
/// The view aliases executor scratch — read it inside the callback.
template <typename T>
using LayerObserver = std::function<void(std::size_t, ConstTensorView<T>)>;

/// Classification output: per-class scores (softmax confidences, or raw
/// scores for networks without a softmax head) plus ranking utilities.
struct Prediction {
  std::vector<double> scores;
  bool has_confidence = true;  ///< false when the net has no softmax (NiN)

  /// Class index with the highest score.
  std::size_t top1() const;
  /// The `k` highest-scoring class indices, best first.
  std::vector<std::size_t> topk(std::size_t k) const;
  /// Score of the top-1 class.
  double top1_score() const;
};

/// Describes where a LayerFaults bundle should be applied during a forward
/// pass, including the global-buffer case (flip an input ACT of the layer,
/// visible to every consumer).
struct AppliedFault {
  std::size_t layer = 0;       ///< target layer index (conv/FC)
  LayerFaults faults;          ///< latch / SRAM / REG / column faults
  bool flip_layer_input = false;  ///< global-buffer model: corrupt input ACT
  std::size_t input_index = 0;    ///< flat index of the input ACT to corrupt
  fault::FaultOp input_op;        ///< mask operation applied to that word
  /// Reduced storage format for the corrupted input word, if any.
  std::optional<numeric::DType> input_storage;
};

/// One layer's parameters: row-major weights (conv OIHW, FC out x in) and
/// one bias per output channel (an FC output is its own channel). Both are
/// empty for layers without MACs.
template <typename T>
struct LayerParams {
  std::vector<T> weights;
  std::vector<T> biases;
};

template <typename T>
class Network {
 public:
  /// Instantiates the topology with zero-valued parameters.
  explicit Network(const NetworkSpec& spec);
  ~Network();
  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;

  const NetworkSpec& spec() const noexcept { return spec_; }
  const std::string& name() const noexcept { return spec_.name; }
  std::size_t num_layers() const noexcept { return spec_.layers.size(); }
  std::size_t num_classes() const noexcept { return spec_.num_classes; }
  bool has_softmax() const noexcept { return spec_.has_softmax(); }

  /// Every layer's parameters, indexed like spec().layers.
  std::span<const LayerParams<T>> params() const noexcept { return params_; }

  /// The one way to change parameters: calls `fn` with the mutable records
  /// (index i is params()[i]; their sizes must not change), then re-takes
  /// the plan's weight pointers and packed copy, also when `fn` throws. No
  /// other thread may run the plan meanwhile.
  void update_params(const std::function<void(std::span<LayerParams<T>>)>& fn);

  /// Indices of layers that perform MACs (conv and FC), in order.
  const std::vector<std::size_t>& mac_layers() const noexcept {
    return mac_layers_;
  }

  /// The compiled forward schedule for this network (built at construction,
  /// immutable, shareable across threads).
  const ExecutionPlan<T>& plan() const noexcept { return *plan_; }

  /// Plain forward pass; returns the final output tensor.
  Tensor<T> forward(const Tensor<T>& input) const;

  /// Interprets a final output as a Prediction.
  Prediction interpret(ConstTensorView<T> output) const;
  Prediction interpret(const Tensor<T>& output) const {
    return interpret(output.view());
  }

  /// Classification shorthand: forward + interpret.
  Prediction classify(const Tensor<T>& input) const;

  /// Total MACs for an input of the spec'd shape.
  std::size_t total_macs() const;

  /// Total number of weights (across conv/FC layers).
  std::size_t total_weights() const;

 private:
  NetworkSpec spec_;
  std::vector<LayerParams<T>> params_;
  std::vector<std::size_t> mac_layers_;
  // Built eagerly in the constructor; unique_ptr because ExecutionPlan is
  // incomplete here (executor.h includes this header). The plan points into
  // the records' weight vectors, whose storage a Network move keeps.
  std::unique_ptr<ExecutionPlan<T>> plan_;
};

extern template class Network<double>;
extern template class Network<float>;
extern template class Network<numeric::Half>;
extern template class Network<numeric::Fx32r26>;
extern template class Network<numeric::Fx32r10>;
extern template class Network<numeric::Fx16r10>;

}  // namespace dnnfi::dnn
