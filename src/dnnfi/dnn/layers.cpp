#include "dnnfi/dnn/layers.h"

#include <cmath>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/weights.h"

namespace dnnfi::dnn {

void init_weights(Network<float>& net, std::uint64_t seed) {
  const auto& macs = net.mac_layers();
  net.update_params([&](auto layers) {
    for (std::size_t m = 0; m < macs.size(); ++m) {
      auto w = layers[macs[m]]->weights();
      auto b = layers[macs[m]]->biases();
      // He-normal: std = sqrt(2 / fan_in). fan_in = weights per output.
      const std::size_t fan_in = w.size() / std::max<std::size_t>(1, b.size());
      const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
      Rng rng = derive_stream(seed, 0xC0FFEE00ULL + m);
      for (auto& v : w) v = static_cast<float>(rng.normal() * stddev);
      for (auto& v : b) v = 0.0F;
    }
  });
}

WeightsBlob extract_weights(const Network<float>& net) {
  WeightsBlob blob;
  blob.layers.reserve(net.mac_layers().size());
  for (const std::size_t li : net.mac_layers()) {
    const auto& layer = net.layer(li);
    LayerWeights lw;
    lw.weights.assign(layer.weights().begin(), layer.weights().end());
    lw.biases.assign(layer.biases().begin(), layer.biases().end());
    blob.layers.push_back(std::move(lw));
  }
  return blob;
}

}  // namespace dnnfi::dnn
