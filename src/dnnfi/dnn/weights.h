// Weight containers and movement: initialization, extraction from a trained
// float network, and quantized loading into a network of any datapath type.
// Weights are always persisted as float32 (the "pre-trained model"); each
// deployment quantizes them into its datapath type exactly once, as an
// accelerator's weight-load stage would.
#pragma once

#include <cstdint>
#include <vector>

#include "dnnfi/dnn/network.h"

namespace dnnfi::dnn {

/// Parameters of one conv/FC layer in float.
using LayerWeights = LayerParams<float>;

/// All parameters of a network, indexed by MAC-layer ordinal (the i-th
/// conv/FC layer in topology order).
struct WeightsBlob {
  std::vector<LayerWeights> layers;
};

/// He-normal initialization of every conv/FC layer, deterministic in `seed`.
void init_weights(Network<float>& net, std::uint64_t seed);

/// Copies all parameters out of a float network.
WeightsBlob extract_weights(const Network<float>& net);

/// Loads (and quantizes) a blob into a network of datapath type T. Layer
/// counts and parameter sizes must match the blob exactly.
template <typename T>
void load_weights(Network<T>& net, const WeightsBlob& blob) {
  const auto& macs = net.mac_layers();
  DNNFI_EXPECTS(blob.layers.size() == macs.size());
  net.update_params([&](auto params) {
    for (std::size_t i = 0; i < macs.size(); ++i) {
      auto& w = params[macs[i]].weights;
      auto& b = params[macs[i]].biases;
      DNNFI_EXPECTS(blob.layers[i].weights.size() == w.size());
      DNNFI_EXPECTS(blob.layers[i].biases.size() == b.size());
      for (std::size_t j = 0; j < w.size(); ++j)
        w[j] = numeric::numeric_traits<T>::from_double(
            static_cast<double>(blob.layers[i].weights[j]));
      for (std::size_t j = 0; j < b.size(); ++j)
        b[j] = numeric::numeric_traits<T>::from_double(
            static_cast<double>(blob.layers[i].biases[j]));
    }
  });
}

/// Builds a Network<T> from a spec and a trained blob in one step.
template <typename T>
Network<T> instantiate(const NetworkSpec& spec, const WeightsBlob& blob) {
  Network<T> net(spec);
  load_weights(net, blob);
  return net;
}

}  // namespace dnnfi::dnn
