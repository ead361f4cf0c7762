// Declarative network topology description. A NetworkSpec is the single
// source of truth a Network<T> is instantiated from, for any datapath type
// T; it is also what the model serializer stores next to the weights.
// shape_after and mac_steps are the one shape rule and the one MAC rule:
// the execution plan, the parameter sizes and the accelerator footprint
// model all read them.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "dnnfi/tensor/tensor.h"

namespace dnnfi::dnn {

using tensor::ConstTensorView;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

enum class LayerKind {
  kConv,
  kFullyConnected,
  kRelu,
  kMaxPool,
  kLrn,
  kSoftmax,
  kGlobalAvgPool,
};

constexpr const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:           return "conv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kRelu:           return "relu";
    case LayerKind::kMaxPool:        return "maxpool";
    case LayerKind::kLrn:            return "lrn";
    case LayerKind::kSoftmax:        return "softmax";
    case LayerKind::kGlobalAvgPool:  return "gavgpool";
  }
  return "?";
}

/// One layer of a topology. Only the fields relevant to `kind` are used.
/// Conv: square kernels, zero padding, one bias per output channel; its MAC
/// steps enumerate the (ci, ky, kx) kernel volume row-major, padded taps
/// included. FC: out[o] = sum_i W[o,i] * in[i] + b[o] over the flattened
/// input. Maxpool: square windows, no padding. LRN: across channels, odd
/// window `lrn_size`.
struct LayerSpec {
  LayerKind kind = LayerKind::kRelu;
  std::string name;
  int block = 0;  ///< logical paper-layer (conv/FC block), 1-based

  // conv
  std::size_t out_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;
  // fc
  std::size_t out_features = 0;
  // maxpool
  std::size_t pool_kernel = 0;
  std::size_t pool_stride = 0;
  // lrn
  std::size_t lrn_size = 5;
  double lrn_alpha = 1e-4;
  double lrn_beta = 0.75;
  double lrn_k = 1.0;

  friend bool operator==(const LayerSpec&, const LayerSpec&) = default;
};

/// A full topology: input shape plus ordered layers.
struct NetworkSpec {
  std::string name;
  Shape input;
  std::size_t num_classes = 0;
  std::vector<LayerSpec> layers;

  /// Number of logical (conv/FC) blocks — the paper's "layers".
  int num_blocks() const {
    int b = 0;
    for (const auto& l : layers) b = std::max(b, l.block);
    return b;
  }

  /// True when the topology ends with a softmax (NiN does not).
  bool has_softmax() const {
    return !layers.empty() && layers.back().kind == LayerKind::kSoftmax;
  }

  friend bool operator==(const NetworkSpec&, const NetworkSpec&) = default;
};

/// Output shape of `l` applied to `in`. Throws ContractViolation when the
/// layer's geometry does not fit `in` (or is degenerate).
Shape shape_after(const LayerSpec& l, const Shape& in);

/// Accumulation steps per output element of `l` on `in`: the conv kernel
/// volume in.c * k * k, the FC input length, 0 for layers without MACs.
/// A layer's MACs are shape_after(l, in).size() * mac_steps(l, in).
std::size_t mac_steps(const LayerSpec& l, const Shape& in);

/// Convenience builders for assembling specs fluently.
class SpecBuilder {
 public:
  SpecBuilder(std::string name, Shape input, std::size_t num_classes) {
    spec_.name = std::move(name);
    spec_.input = input;
    spec_.num_classes = num_classes;
  }

  SpecBuilder& conv(std::size_t out_c, std::size_t k, std::size_t stride = 1,
                    std::size_t pad = 0) {
    ++block_;
    LayerSpec l;
    l.kind = LayerKind::kConv;
    l.name = "conv" + std::to_string(block_);
    l.block = block_;
    l.out_channels = out_c;
    l.kernel = k;
    l.stride = stride;
    l.pad = pad;
    spec_.layers.push_back(l);
    return *this;
  }

  SpecBuilder& fc(std::size_t out_features) {
    ++block_;
    LayerSpec l;
    l.kind = LayerKind::kFullyConnected;
    l.name = "fc" + std::to_string(block_);
    l.block = block_;
    l.out_features = out_features;
    spec_.layers.push_back(l);
    return *this;
  }

  SpecBuilder& relu() { return append(LayerKind::kRelu, "relu"); }

  SpecBuilder& maxpool(std::size_t k, std::size_t stride) {
    LayerSpec l;
    l.kind = LayerKind::kMaxPool;
    l.name = "pool" + std::to_string(block_);
    l.block = block_;
    l.pool_kernel = k;
    l.pool_stride = stride;
    spec_.layers.push_back(l);
    return *this;
  }

  SpecBuilder& lrn(std::size_t size = 5, double alpha = 1e-4,
                   double beta = 0.75, double k = 1.0) {
    LayerSpec l;
    l.kind = LayerKind::kLrn;
    l.name = "norm" + std::to_string(block_);
    l.block = block_;
    l.lrn_size = size;
    l.lrn_alpha = alpha;
    l.lrn_beta = beta;
    l.lrn_k = k;
    spec_.layers.push_back(l);
    return *this;
  }

  SpecBuilder& softmax() { return append(LayerKind::kSoftmax, "softmax"); }
  SpecBuilder& global_avg_pool() {
    return append(LayerKind::kGlobalAvgPool, "gavgpool");
  }

  NetworkSpec build() const { return spec_; }

 private:
  SpecBuilder& append(LayerKind kind, const char* stem) {
    LayerSpec l;
    l.kind = kind;
    l.name = std::string(stem) + std::to_string(block_);
    l.block = block_;
    spec_.layers.push_back(l);
    return *this;
  }

  NetworkSpec spec_;
  int block_ = 0;
};

}  // namespace dnnfi::dnn
