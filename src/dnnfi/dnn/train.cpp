#include "dnnfi/dnn/train.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/common/thread_pool.h"

namespace dnnfi::dnn {

namespace {

/// Per-worker forward/backward scratch: activations, gradients, and
/// parameter-gradient accumulators.
struct Workspace {
  std::vector<Tensor<float>> acts;    // output of each layer
  std::vector<Tensor<float>> grads;   // grad w.r.t. each layer output
  std::vector<std::vector<float>> gw; // per-layer weight grads
  std::vector<std::vector<float>> gb; // per-layer bias grads
  double loss_sum = 0;
  std::size_t correct = 0;
  std::size_t count = 0;

  explicit Workspace(const Network<float>& net) {
    acts.resize(net.num_layers());
    grads.resize(net.num_layers() + 1);
    gw.resize(net.num_layers());
    gb.resize(net.num_layers());
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      gw[i].resize(net.layer(i).weights().size(), 0.0F);
      gb[i].resize(net.layer(i).biases().size(), 0.0F);
    }
  }

  void zero_grads() {
    for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0F);
    for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0F);
    loss_sum = 0;
    correct = 0;
    count = 0;
  }
};

/// Index of the last layer to run during training (trailing softmax is
/// folded into the loss).
std::size_t train_depth(const Network<float>& net) {
  const std::size_t n = net.num_layers();
  if (net.layer(n - 1).kind() == LayerKind::kSoftmax) return n - 1;
  return n;
}

/// Forward to logits, then softmax-cross-entropy loss/gradient, then
/// backward, accumulating parameter gradients into ws.
void fwd_bwd(const Network<float>& net, const Example& ex, Workspace& ws) {
  const std::size_t depth = train_depth(net);
  const Tensor<float>* cur = &ex.image;
  for (std::size_t i = 0; i < depth; ++i) {
    net.layer(i).forward(*cur, ws.acts[i]);
    cur = &ws.acts[i];
  }
  const Tensor<float>& logits = *cur;
  const std::size_t k = logits.size();
  DNNFI_EXPECTS(ex.label < k);

  // Stabilized softmax + cross-entropy.
  float mx = logits[0];
  for (std::size_t i = 1; i < k; ++i) mx = std::max(mx, logits[i]);
  double sum = 0;
  std::vector<double> p(k);
  for (std::size_t i = 0; i < k; ++i) {
    p[i] = std::exp(static_cast<double>(logits[i] - mx));
    sum += p[i];
  }
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < k; ++i) {
    p[i] /= sum;
    if (logits[i] > logits[argmax]) argmax = i;
  }
  ws.loss_sum += -std::log(std::max(p[ex.label], 1e-12));
  ws.correct += (argmax == ex.label) ? 1U : 0U;
  ws.count += 1;

  // dLoss/dLogits = p - onehot(label).
  Tensor<float>& gtop = ws.grads[depth];
  if (gtop.shape() != logits.shape()) gtop.reshape(logits.shape());
  for (std::size_t i = 0; i < k; ++i)
    gtop[i] = static_cast<float>(p[i] - (i == ex.label ? 1.0 : 0.0));

  for (std::size_t i = depth; i-- > 0;) {
    const Tensor<float>& in = (i == 0) ? ex.image : ws.acts[i - 1];
    net.layer(i).backward(in, ws.acts[i], ws.grads[i + 1], ws.grads[i],
                          ws.gw[i], ws.gb[i]);
  }
}

}  // namespace

void train(Network<float>& net, const ExampleSource& source,
           const TrainConfig& config) {
  DNNFI_EXPECTS(config.batch > 0 && config.train_count > 0);

  // Momentum buffers per layer.
  std::vector<std::vector<float>> vw(net.num_layers()), vb(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    vw[i].resize(net.layer(i).weights().size(), 0.0F);
    vb[i].resize(net.layer(i).biases().size(), 0.0F);
  }

  // Fixed number of accumulation lanes, independent of thread count, so the
  // gradient summation order (and thus the trained model) is reproducible
  // on any machine.
  constexpr std::size_t kLanes = 8;
  std::vector<Workspace> lanes;
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
        Workspace& ws = lanes[lane_idx];
        for (std::size_t s = start + lane_idx; s < end; s += kLanes) {
          fwd_bwd(net, source(order[s]), ws);
        }
      });

      // Reduce lanes in fixed order and apply SGD with momentum + decay.
      const auto bsz = static_cast<double>(end - start);
      net.update_params([&](auto layers) {
        for (std::size_t li = 0; li < layers.size(); ++li) {
          auto w = layers[li]->weights();
          auto b = layers[li]->biases();
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
  Tensor<float> a, b;
  for (std::size_t s = 0; s < count; ++s) {
    const Example ex = source(begin + s);
    const Tensor<float>* cur = &ex.image;
    for (std::size_t i = 0; i < depth; ++i) {
      net.layer(i).forward(*cur, (i % 2 == 0) ? a : b);
      cur = (i % 2 == 0) ? &a : &b;
    }
    const Tensor<float>& logits = *cur;
    float mx = logits[0];
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < logits.size(); ++i) {
      if (logits[i] > logits[argmax]) argmax = i;
      mx = std::max(mx, logits[i]);
    }
    double sum = 0;
    for (std::size_t i = 0; i < logits.size(); ++i)
      sum += std::exp(static_cast<double>(logits[i] - mx));
    const double p_label =
        std::exp(static_cast<double>(logits[ex.label] - mx)) / sum;
    loss += -std::log(std::max(p_label, 1e-12));
    correct += (argmax == ex.label) ? 1U : 0U;
  }
  return {static_cast<double>(correct) / static_cast<double>(count),
          loss / static_cast<double>(count)};
}

}  // namespace dnnfi::dnn
