#include "dnnfi/dnn/train.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/common/thread_pool.h"
#include "dnnfi/dnn/layers.h"

namespace dnnfi::dnn {

namespace {

/// One accumulation lane's scratch: the plan's activations of its current
/// example, gradients, and parameter-gradient accumulators.
struct Lane {
  ActivationCache<float> cache;
  std::vector<Tensor<float>> grads;   // grad w.r.t. each layer output
  std::vector<std::vector<float>> gw; // per-layer weight grads
  std::vector<std::vector<float>> gb; // per-layer bias grads
  std::vector<double> p;              // softmax of the logits
  double loss_sum = 0;
  std::size_t correct = 0;

  explicit Lane(const Network<float>& net) {
    grads.resize(net.num_layers() + 1);
    gw.resize(net.num_layers());
    gb.resize(net.num_layers());
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      gw[i].resize(net.params()[i].weights.size(), 0.0F);
      gb[i].resize(net.params()[i].biases.size(), 0.0F);
    }
  }

  void zero_grads() {
    for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0F);
    for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0F);
    loss_sum = 0;
    correct = 0;
  }
};

/// Index of the last layer to run during training (trailing softmax is
/// folded into the loss).
std::size_t train_depth(const Network<float>& net) {
  const std::size_t n = net.num_layers();
  return net.has_softmax() ? n - 1 : n;
}

/// The softmax-cross-entropy head's verdict on one example.
struct HeadResult {
  double loss = 0;
  bool correct = false;
};

/// Stabilized softmax of `logits` in double precision into `p`, with the
/// cross-entropy loss against `label` and whether the top-1 class (first
/// maximum wins ties) is `label`.
HeadResult softmax_head(ConstTensorView<float> logits, std::size_t label,
                        std::vector<double>& p) {
  const std::size_t k = logits.size();
  DNNFI_EXPECTS(label < k);
  float mx = logits[0];
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < k; ++i) {
    mx = std::max(mx, logits[i]);
    if (logits[i] > logits[argmax]) argmax = i;
  }
  p.resize(k);
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) {
    p[i] = std::exp(static_cast<double>(logits[i] - mx));
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return {-std::log(std::max(p[label], 1e-12)), argmax == label};
}

/// Forward through the network's plan into the lane's activation cache,
/// then softmax-cross-entropy loss/gradient, then backward, accumulating
/// parameter gradients into the lane.
void fwd_bwd(const Network<float>& net, const Example& ex, Lane& lane) {
  const std::size_t depth = train_depth(net);
  lane.cache.build(net.plan(), ex.image);
  const ConstTensorView<float> logits = lane.cache.act(depth - 1);
  const HeadResult head = softmax_head(logits, ex.label, lane.p);
  lane.loss_sum += head.loss;
  lane.correct += head.correct ? 1U : 0U;

  // dLoss/dLogits = p - onehot(label).
  Tensor<float>& gtop = lane.grads[depth];
  if (gtop.shape() != logits.shape()) gtop.reshape(logits.shape());
  for (std::size_t i = 0; i < logits.size(); ++i)
    gtop[i] = static_cast<float>(lane.p[i] - (i == ex.label ? 1.0 : 0.0));

  for (std::size_t i = depth; i-- > 0;) {
    backward(net.plan().steps()[i], lane.cache.layer_input(i),
             lane.cache.act(i), lane.grads[i + 1], lane.grads[i], lane.gw[i],
             lane.gb[i]);
  }
}

}  // namespace

void train(Network<float>& net, const ExampleSource& source,
           const TrainConfig& config) {
  DNNFI_EXPECTS(config.batch > 0 && config.train_count > 0);

  // Momentum buffers per layer.
  std::vector<std::vector<float>> vw(net.num_layers()), vb(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    vw[i].resize(net.params()[i].weights.size(), 0.0F);
    vb[i].resize(net.params()[i].biases.size(), 0.0F);
  }

  // Fixed number of accumulation lanes, independent of thread count, so the
  // gradient summation order (and thus the trained model) is reproducible
  // on any machine.
  constexpr std::size_t kLanes = 8;
  std::vector<Lane> lanes;
  lanes.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) lanes.emplace_back(net);

  std::vector<std::uint64_t> order(config.train_count);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng = derive_stream(config.seed, 0x5C0FFULL);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher–Yates shuffle with our deterministic generator.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(shuffle_rng.below(i));
      std::swap(order[i - 1], order[j]);
    }

    double epoch_loss = 0;
    std::size_t epoch_correct = 0;
    for (std::size_t start = 0; start < order.size(); start += config.batch) {
      const std::size_t end = std::min(order.size(), start + config.batch);
      for (auto& lane : lanes) lane.zero_grads();

      // Deterministic lane assignment: example -> lane by position.
      parallel_for(kLanes, [&](std::size_t lane_idx) {
        Lane& lane = lanes[lane_idx];
        for (std::size_t s = start + lane_idx; s < end; s += kLanes) {
          fwd_bwd(net, source(order[s]), lane);
        }
      });

      // Reduce lanes in fixed order and apply SGD with momentum + decay.
      const auto bsz = static_cast<double>(end - start);
      net.update_params([&](auto params) {
        for (std::size_t li = 0; li < params.size(); ++li) {
          auto& w = params[li].weights;
          auto& b = params[li].biases;
          for (std::size_t j = 0; j < w.size(); ++j) {
            double g = 0;
            for (const auto& lane : lanes) g += static_cast<double>(lane.gw[li][j]);
            g = g / bsz + config.weight_decay * static_cast<double>(w[j]);
            vw[li][j] = static_cast<float>(config.momentum * static_cast<double>(vw[li][j]) -
                                           config.learning_rate * g);
            w[j] += vw[li][j];
          }
          for (std::size_t j = 0; j < b.size(); ++j) {
            double g = 0;
            for (const auto& lane : lanes) g += static_cast<double>(lane.gb[li][j]);
            g /= bsz;
            vb[li][j] = static_cast<float>(config.momentum * static_cast<double>(vb[li][j]) -
                                           config.learning_rate * g);
            b[j] += vb[li][j];
          }
        }
      });
      for (const auto& lane : lanes) {
        epoch_loss += lane.loss_sum;
        epoch_correct += lane.correct;
      }
    }
    if (config.verbose) {
      std::cerr << "[train " << net.name() << "] epoch " << (epoch + 1) << "/"
                << config.epochs << " loss "
                << epoch_loss / static_cast<double>(order.size()) << " acc "
                << static_cast<double>(epoch_correct) /
                       static_cast<double>(order.size())
                << '\n';
    }
  }
}

EvalResult evaluate(const Network<float>& net, const ExampleSource& source,
                    std::uint64_t begin, std::size_t count) {
  DNNFI_EXPECTS(count > 0);
  const std::size_t depth = train_depth(net);
  double loss = 0;
  std::size_t correct = 0;
  ActivationCache<float> cache;
  std::vector<double> p;
  for (std::size_t s = 0; s < count; ++s) {
    const Example ex = source(begin + s);
    cache.build(net.plan(), ex.image);
    const HeadResult head = softmax_head(cache.act(depth - 1), ex.label, p);
    loss += head.loss;
    correct += head.correct ? 1U : 0U;
  }
  return {static_cast<double>(correct) / static_cast<double>(count),
          loss / static_cast<double>(count)};
}

}  // namespace dnnfi::dnn
