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

Shape shape_after(const LayerSpec& l, const Shape& in) {
  switch (l.kind) {
    case LayerKind::kConv: {
      DNNFI_EXPECTS(in.c > 0 && l.out_channels > 0 && l.kernel > 0 &&
                    l.stride > 0);
      DNNFI_EXPECTS(in.h + 2 * l.pad >= l.kernel && in.w + 2 * l.pad >= l.kernel);
      return tensor::chw(l.out_channels,
                         (in.h + 2 * l.pad - l.kernel) / l.stride + 1,
                         (in.w + 2 * l.pad - l.kernel) / l.stride + 1);
    }
    case LayerKind::kFullyConnected:
      DNNFI_EXPECTS(in.size() > 0 && l.out_features > 0);
      return tensor::vec(l.out_features);
    case LayerKind::kMaxPool:
      DNNFI_EXPECTS(l.pool_kernel > 0 && l.pool_stride > 0);
      DNNFI_EXPECTS(in.h >= l.pool_kernel && in.w >= l.pool_kernel);
      return tensor::chw(in.c, (in.h - l.pool_kernel) / l.pool_stride + 1,
                         (in.w - l.pool_kernel) / l.pool_stride + 1);
    case LayerKind::kGlobalAvgPool:
      return tensor::vec(in.c);
    case LayerKind::kSoftmax:
      return tensor::vec(in.size());
    case LayerKind::kLrn:
      DNNFI_EXPECTS(l.lrn_size % 2 == 1);
      return in;
    case LayerKind::kRelu:
      return in;
  }
  DNNFI_EXPECTS(false);
  return in;
}

std::size_t mac_steps(const LayerSpec& l, const Shape& in) {
  switch (l.kind) {
    case LayerKind::kConv:
      return in.c * l.kernel * l.kernel;
    case LayerKind::kFullyConnected:
      return in.size();
    default:
      return 0;
  }
}

template <typename T>
Network<T>::Network(const NetworkSpec& spec)
    : spec_(spec), params_(spec.layers.size()) {
  DNNFI_EXPECTS(!spec.layers.empty());
  Shape shape = spec.input;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const LayerSpec& ls = spec.layers[i];
    const std::size_t steps = mac_steps(ls, shape);
    shape = shape_after(ls, shape);
    if (steps == 0) continue;
    const std::size_t outs = ls.kind == LayerKind::kConv ? ls.out_channels
                                                         : ls.out_features;
    params_[i].weights.resize(outs * steps);
    params_[i].biases.resize(outs);
    mac_layers_.push_back(i);
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
void Network<T>::update_params(
    const std::function<void(std::span<LayerParams<T>>)>& fn) {
  try {
    fn(params_);
  } catch (...) {
    plan_->repack(params_);
    throw;
  }
  plan_->repack(params_);
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
  for (const auto& p : params_) total += p.weights.size();
  return total;
}

template class Network<double>;
template class Network<float>;
template class Network<numeric::Half>;
template class Network<numeric::Fx32r26>;
template class Network<numeric::Fx32r10>;
template class Network<numeric::Fx16r10>;

}  // namespace dnnfi::dnn
