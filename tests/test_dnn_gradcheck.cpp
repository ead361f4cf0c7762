// Numerical gradient checks: every layer's backward is validated against
// central finite differences of its forward, for inputs, weights, and
// biases. These are the property tests guaranteeing the trainer optimizes
// the true loss.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using tensor::chw;
using tensor::Tensor;
using tensor::vec;

constexpr double kEps = 1e-4;
constexpr double kTol = 2e-2;  // relative, with absolute floor below

/// Scalar loss used to probe gradients: weighted sum of outputs with fixed
/// pseudo-random weights (exposes every output element).
double probe_loss(const Tensor<double>& out, Rng probe_seed) {
  double loss = 0;
  Rng rng = probe_seed;
  for (std::size_t i = 0; i < out.size(); ++i)
    loss += out[i] * (rng.uniform() - 0.5);
  return loss;
}

Tensor<double> probe_grad(const tensor::Shape& s, Rng probe_seed) {
  Tensor<double> g(s);
  Rng rng = probe_seed;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform() - 0.5;
  return g;
}

void expect_close(double analytic, double numeric, const char* what,
                  std::size_t index) {
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-3});
  EXPECT_LT(std::abs(analytic - numeric) / denom, kTol)
      << what << "[" << index << "]: analytic=" << analytic
      << " numeric=" << numeric;
}

/// Checks dLoss/dIn, dLoss/dW, dLoss/dB of `layer` at `in`.
void grad_check(Layer<double>& layer, const Tensor<double>& in) {
  const Tensor<double> out = scalar_ref::forward(layer, in);
  const Rng probe(777);

  Tensor<double> gout = probe_grad(out.shape(), probe);
  Tensor<double> gin;
  std::vector<double> gw(layer.weights().size(), 0.0);
  std::vector<double> gb(layer.biases().size(), 0.0);
  layer.backward(in, out, gout, gin, gw, gb);

  // Input gradients.
  Tensor<double> probe_in = in;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double v = probe_in[i];
    probe_in[i] = v + kEps;
    const Tensor<double> o1 = scalar_ref::forward(layer, probe_in);
    probe_in[i] = v - kEps;
    const Tensor<double> o2 = scalar_ref::forward(layer, probe_in);
    probe_in[i] = v;
    const double num = (probe_loss(o1, probe) - probe_loss(o2, probe)) / (2 * kEps);
    expect_close(gin[i], num, "gin", i);
  }
  // Weight gradients.
  auto w = layer.weights();
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double v = w[i];
    w[i] = v + kEps;
    const Tensor<double> o1 = scalar_ref::forward(layer, in);
    w[i] = v - kEps;
    const Tensor<double> o2 = scalar_ref::forward(layer, in);
    w[i] = v;
    const double num = (probe_loss(o1, probe) - probe_loss(o2, probe)) / (2 * kEps);
    expect_close(gw[i], num, "gw", i);
  }
  // Bias gradients.
  auto b = layer.biases();
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double v = b[i];
    b[i] = v + kEps;
    const Tensor<double> o1 = scalar_ref::forward(layer, in);
    b[i] = v - kEps;
    const Tensor<double> o2 = scalar_ref::forward(layer, in);
    b[i] = v;
    const double num = (probe_loss(o1, probe) - probe_loss(o2, probe)) / (2 * kEps);
    expect_close(gb[i], num, "gb", i);
  }
}

Tensor<double> smooth_input(tensor::Shape s, std::uint64_t seed) {
  Tensor<double> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal() * 0.7;
  return t;
}

TEST(GradCheck, ConvBasic) {
  Conv2d<double> conv("c", 1, 2, 3, 3, 1, 1);
  Rng rng(1);
  for (auto& w : conv.weights()) w = rng.normal() * 0.4;
  for (auto& b : conv.biases()) b = rng.normal() * 0.1;
  grad_check(conv, smooth_input(chw(2, 5, 5), 2));
}

TEST(GradCheck, ConvStride2NoPad) {
  Conv2d<double> conv("c", 1, 2, 2, 3, 2, 0);
  Rng rng(3);
  for (auto& w : conv.weights()) w = rng.normal() * 0.4;
  for (auto& b : conv.biases()) b = rng.normal() * 0.1;
  grad_check(conv, smooth_input(chw(2, 7, 7), 4));
}

TEST(GradCheck, Conv1x1) {
  Conv2d<double> conv("c", 1, 3, 2, 1, 1, 0);
  Rng rng(5);
  for (auto& w : conv.weights()) w = rng.normal() * 0.4;
  grad_check(conv, smooth_input(chw(3, 4, 4), 6));
}

TEST(GradCheck, FullyConnected) {
  FullyConnected<double> fc("fc", 1, 6, 4);
  Rng rng(7);
  for (auto& w : fc.weights()) w = rng.normal() * 0.4;
  for (auto& b : fc.biases()) b = rng.normal() * 0.1;
  grad_check(fc, smooth_input(vec(6), 8));
}

TEST(GradCheck, ReluAwayFromKink) {
  Relu<double> relu("r", 1);
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor<double> in = smooth_input(vec(12), 9);
  for (std::size_t i = 0; i < in.size(); ++i)
    if (std::abs(in[i]) < 0.05) in[i] = 0.2;
  grad_check(relu, in);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  MaxPool2d<double> pool("p", 1, 2, 2);
  Tensor<double> in = smooth_input(chw(2, 4, 4), 10);
  grad_check(pool, in);
}

TEST(GradCheck, Lrn) {
  Lrn<double> lrn("n", 1, 3, 0.5, 0.75, 1.0);
  grad_check(lrn, smooth_input(chw(5, 2, 2), 11));
}

TEST(GradCheck, LrnPaperParameters) {
  Lrn<double> lrn("n", 1, 5, 1e-4, 0.75, 1.0);
  grad_check(lrn, smooth_input(chw(7, 2, 2), 12));
}

TEST(GradCheck, Softmax) {
  Softmax<double> sm("s", 1);
  grad_check(sm, smooth_input(vec(5), 13));
}

TEST(GradCheck, GlobalAvgPool) {
  GlobalAvgPool<double> gap("g", 1);
  grad_check(gap, smooth_input(chw(3, 3, 3), 14));
}

}  // namespace
}  // namespace dnnfi::dnn
