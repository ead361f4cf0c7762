// Trainer behaviour: loss decreases, accuracy rises on a separable toy
// problem, and training is bit-deterministic in its seed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/train.h"
#include "dnnfi/dnn/weights.h"

namespace dnnfi::dnn {
namespace {

using tensor::chw;
using tensor::Tensor;

/// Toy 2-class problem: class 0 images are bright in the left half, class 1
/// in the right half, plus noise.
Example toy_example(std::uint64_t i) {
  Rng rng = derive_stream(55, i);
  Example ex;
  ex.label = i % 2;
  ex.image = Tensor<float>(chw(1, 6, 6));
  for (std::size_t y = 0; y < 6; ++y)
    for (std::size_t x = 0; x < 6; ++x) {
      const bool hot = (ex.label == 0) ? (x < 3) : (x >= 3);
      ex.image.at(0, 0, y, x) =
          static_cast<float>((hot ? 1.0 : -1.0) + rng.normal() * 0.2);
    }
  return ex;
}

NetworkSpec toy_spec() {
  return SpecBuilder("toy", chw(1, 6, 6), 2)
      .conv(4, 3, 1, 1).relu().maxpool(2, 2)
      .fc(2).softmax()
      .build();
}

TEST(Train, LearnsSeparableProblem) {
  Network<float> net(toy_spec());
  init_weights(net, 1);
  const auto before = evaluate(net, toy_example, 1000, 100);

  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.train_count = 200;
  cfg.batch = 16;
  cfg.learning_rate = 0.05;
  cfg.seed = 2;
  train(net, toy_example, cfg);

  const auto after = evaluate(net, toy_example, 1000, 100);
  EXPECT_LT(after.avg_loss, before.avg_loss);
  EXPECT_GE(after.accuracy, 0.95);
}

TEST(Train, DeterministicInSeed) {
  const auto run = [] {
    Network<float> net(toy_spec());
    init_weights(net, 1);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.train_count = 64;
    cfg.batch = 8;
    cfg.seed = 3;
    train(net, toy_example, cfg);
    return extract_weights(net);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l)
    EXPECT_EQ(a.layers[l].weights, b.layers[l].weights) << "layer " << l;
}

/// FNV-1a over the bit patterns of every trained weight and bias.
std::uint64_t weights_checksum(const WeightsBlob& blob) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](float v) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    for (int b = 0; b < 32; b += 8) {
      h ^= (bits >> b) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& l : blob.layers) {
    for (const float w : l.weights) mix(w);
    for (const float b : l.biases) mix(b);
  }
  return h;
}

// Locks the trained bits: any change to the trainer's forward, backward,
// loss or reduction order that moves a single weight bit fails here (the
// checked-in models/*.dnnfi were trained by this code). Covers every
// layer kind the zoo trains, LRN included.
TEST(Train, TrainedWeightsMatchTheLockedChecksum) {
  const auto spec = SpecBuilder("toy-lock", chw(1, 6, 6), 2)
                        .conv(4, 3, 1, 1).relu().lrn(3, 1e-2, 0.75, 1.0)
                        .maxpool(2, 2).fc(2).softmax()
                        .build();
  Network<float> net(spec);
  init_weights(net, 5);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.train_count = 96;
  cfg.batch = 12;
  cfg.learning_rate = 0.05;
  cfg.seed = 6;
  train(net, toy_example, cfg);
  EXPECT_EQ(weights_checksum(extract_weights(net)), 0x91aaf1b3282ecaeeULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                evaluate(net, toy_example, 1000, 50).avg_loss),
            0x3ed3078850ec47c7ULL);
}

TEST(Train, DifferentSeedsProduceDifferentModels) {
  const auto run = [](std::uint64_t seed) {
    Network<float> net(toy_spec());
    init_weights(net, seed);
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.train_count = 32;
    cfg.batch = 8;
    cfg.seed = seed;
    train(net, toy_example, cfg);
    return extract_weights(net);
  };
  EXPECT_NE(run(1).layers[0].weights, run(2).layers[0].weights);
}

TEST(Train, WorksForNetworksWithoutSoftmaxHead) {
  // NiN-style: no trailing softmax; the trainer supplies softmax+xent.
  auto spec = SpecBuilder("toy-nosm", chw(1, 6, 6), 2)
                  .conv(2, 3, 1, 1).relu().global_avg_pool()
                  .build();
  Network<float> net(spec);
  init_weights(net, 4);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.train_count = 200;
  cfg.batch = 16;
  cfg.learning_rate = 0.1;
  train(net, toy_example, cfg);
  const auto r = evaluate(net, toy_example, 1000, 100);
  EXPECT_GE(r.accuracy, 0.9);
}

TEST(Evaluate, ChanceLevelForUntrainedNet) {
  Network<float> net(toy_spec());
  init_weights(net, 9);
  const auto r = evaluate(net, toy_example, 0, 200);
  EXPECT_GT(r.accuracy, 0.2);
  EXPECT_LT(r.accuracy, 0.8);
}

TEST(InitWeights, DeterministicAndScaled) {
  Network<float> a(toy_spec()), b(toy_spec());
  init_weights(a, 42);
  init_weights(b, 42);
  const auto& la = a.params()[a.mac_layers()[0]];
  const auto& lb = b.params()[b.mac_layers()[0]];
  EXPECT_EQ(la.weights, lb.weights);
  // He-init std for fan_in 9 is sqrt(2/9) ~ 0.47; check sample std is sane.
  double s2 = 0;
  for (const float w : la.weights)
    s2 += static_cast<double>(w) * static_cast<double>(w);
  const double std_est = std::sqrt(s2 / static_cast<double>(la.weights.size()));
  EXPECT_GT(std_est, 0.2);
  EXPECT_LT(std_est, 0.8);
  for (const float bias : la.biases) EXPECT_EQ(bias, 0.0F);
}

}  // namespace
}  // namespace dnnfi::dnn
