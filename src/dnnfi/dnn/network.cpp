#include "dnnfi/dnn/network.h"

#include <algorithm>
#include <numeric>

#include "dnnfi/dnn/executor.h"

namespace dnnfi::dnn {

std::size_t Prediction::top1() const {
  DNNFI_EXPECTS(!scores.empty());
  return static_cast<std::size_t>(
      std::distance(scores.begin(), std::max_element(scores.begin(), scores.end())));
}

std::vector<std::size_t> Prediction::topk(std::size_t k) const {
  DNNFI_EXPECTS(!scores.empty());
  k = std::min(k, scores.size());
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [this](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(k);
  return idx;
}

double Prediction::top1_score() const { return scores[top1()]; }

/// Output shape of `l` applied to `in` — mirrors the layer classes'
/// out_shape without instantiating them. Shared by the accelerator model
/// (dataflow footprints) and any spec-level shape walking.
Shape shape_after(const LayerSpec& l, const Shape& in) {
  switch (l.kind) {
    case LayerKind::kConv: {
      DNNFI_EXPECTS(in.h + 2 * l.pad >= l.kernel && in.w + 2 * l.pad >= l.kernel);
      return tensor::chw(l.out_channels,
                         (in.h + 2 * l.pad - l.kernel) / l.stride + 1,
                         (in.w + 2 * l.pad - l.kernel) / l.stride + 1);
    }
    case LayerKind::kFullyConnected:
      return tensor::vec(l.out_features);
    case LayerKind::kMaxPool:
      return tensor::chw(in.c, (in.h - l.pool_kernel) / l.pool_stride + 1,
                         (in.w - l.pool_kernel) / l.pool_stride + 1);
    case LayerKind::kGlobalAvgPool:
      return tensor::vec(in.c);
    case LayerKind::kSoftmax:
      return tensor::vec(in.size());
    case LayerKind::kRelu:
    case LayerKind::kLrn:
      return in;
  }
  DNNFI_EXPECTS(false);
  return in;
}

template <typename T>
std::unique_ptr<Layer<T>> make_layer(const LayerSpec& spec, const Shape& in_shape) {
  switch (spec.kind) {
    case LayerKind::kConv:
      return std::make_unique<Conv2d<T>>(spec.name, spec.block, in_shape.c,
                                         spec.out_channels, spec.kernel,
                                         spec.stride, spec.pad);
    case LayerKind::kFullyConnected:
      return std::make_unique<FullyConnected<T>>(spec.name, spec.block,
                                                 in_shape.size(),
                                                 spec.out_features);
    case LayerKind::kRelu:
      return std::make_unique<Relu<T>>(spec.name, spec.block);
    case LayerKind::kMaxPool:
      return std::make_unique<MaxPool2d<T>>(spec.name, spec.block,
                                            spec.pool_kernel, spec.pool_stride);
    case LayerKind::kLrn:
      return std::make_unique<Lrn<T>>(spec.name, spec.block, spec.lrn_size,
                                      spec.lrn_alpha, spec.lrn_beta, spec.lrn_k);
    case LayerKind::kSoftmax:
      return std::make_unique<Softmax<T>>(spec.name, spec.block);
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool<T>>(spec.name, spec.block);
  }
  DNNFI_EXPECTS(false);
  return nullptr;
}

template <typename T>
Network<T>::Network(const NetworkSpec& spec) : spec_(spec) {
  DNNFI_EXPECTS(!spec.layers.empty());
  Shape shape = spec.input;
  layers_.reserve(spec.layers.size());
  for (const auto& ls : spec.layers) {
    auto layer = make_layer<T>(ls, shape);
    shape = layer->out_shape(shape);
    if (ls.kind == LayerKind::kConv || ls.kind == LayerKind::kFullyConnected)
      mac_layers_.push_back(layers_.size());
    layers_.push_back(std::move(layer));
  }
  DNNFI_ENSURES(shape.size() == spec.num_classes);
  plan_ = std::make_unique<ExecutionPlan<T>>(*this);
}

template <typename T>
Network<T>::~Network() = default;
template <typename T>
Network<T>::Network(Network&&) noexcept = default;
template <typename T>
Network<T>& Network<T>::operator=(Network&&) noexcept = default;

template <typename T>
void Network<T>::update_params(const std::function<void(MutableLayers)>& fn) {
  try {
    fn(layers_);
  } catch (...) {
    plan_->repack();
    throw;
  }
  plan_->repack();
}

template <typename T>
Tensor<T> Network<T>::forward(const Tensor<T>& input) const {
  Workspace<T> ws(*plan_);
  RunRequest<T> req;
  req.input = input;
  Tensor<T> out;
  out.assign(Executor<T>(*plan_).run(ws, req));
  return out;
}

template <typename T>
Prediction Network<T>::interpret(ConstTensorView<T> output) const {
  DNNFI_EXPECTS(output.size() == spec_.num_classes);
  Prediction p;
  p.has_confidence = has_softmax();
  p.scores.resize(output.size());
  for (std::size_t i = 0; i < output.size(); ++i)
    p.scores[i] = numeric::numeric_traits<T>::to_double(output[i]);
  return p;
}

template <typename T>
Prediction Network<T>::classify(const Tensor<T>& input) const {
  return interpret(forward(input));
}

template <typename T>
std::size_t Network<T>::total_macs() const {
  return plan_->total_macs();
}

template <typename T>
std::size_t Network<T>::total_weights() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->weights().size();
  return total;
}

template class Network<double>;
template class Network<float>;
template class Network<numeric::Half>;
template class Network<numeric::Fx32r26>;
template class Network<numeric::Fx32r10>;
template class Network<numeric::Fx16r10>;

template std::unique_ptr<Layer<double>> make_layer<double>(const LayerSpec&, const Shape&);
template std::unique_ptr<Layer<float>> make_layer<float>(const LayerSpec&, const Shape&);
template std::unique_ptr<Layer<numeric::Half>> make_layer<numeric::Half>(const LayerSpec&, const Shape&);
template std::unique_ptr<Layer<numeric::Fx32r26>> make_layer<numeric::Fx32r26>(const LayerSpec&, const Shape&);
template std::unique_ptr<Layer<numeric::Fx32r10>> make_layer<numeric::Fx32r10>(const LayerSpec&, const Shape&);
template std::unique_ptr<Layer<numeric::Fx16r10>> make_layer<numeric::Fx16r10>(const LayerSpec&, const Shape&);

}  // namespace dnnfi::dnn
