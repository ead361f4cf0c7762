// Numerical gradient checks: every layer's backward is validated against
// central finite differences of its forward, for inputs, weights, and
// biases. These are the property tests guaranteeing the trainer optimizes
// the true loss.
#include <gtest/gtest.h>

#include <cmath>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using scalar_ref::one_layer;
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

/// Central difference of the probe loss of `net` at `in` in the parameter
/// `at(params)` names.
template <class At>
double param_grad(Network<double>& net, const Tensor<double>& in, At at,
                  Rng probe) {
  double v0 = 0;
  net.update_params([&](auto p) { v0 = at(p); });
  const auto loss_at = [&](double x) {
    net.update_params([&](auto p) { at(p) = x; });
    return probe_loss(scalar_ref::forward(net, in), probe);
  };
  const double num = (loss_at(v0 + kEps) - loss_at(v0 - kEps)) / (2 * kEps);
  net.update_params([&](auto p) { at(p) = v0; });
  return num;
}

/// Checks dLoss/dIn, dLoss/dW, dLoss/dB of the one layer of `net` at `in`.
void grad_check(Network<double>& net, const Tensor<double>& in) {
  const Tensor<double> out = scalar_ref::forward(net, in);
  const Rng probe(777);

  Tensor<double> gout = probe_grad(out.shape(), probe);
  Tensor<double> gin;
  std::vector<double> gw(net.params()[0].weights.size(), 0.0);
  std::vector<double> gb(net.params()[0].biases.size(), 0.0);
  backward(net.plan().steps()[0], in, out, gout, gin, gw, gb);

  // Input gradients.
  Tensor<double> probe_in = in;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double v = probe_in[i];
    probe_in[i] = v + kEps;
    const Tensor<double> o1 = scalar_ref::forward(net, probe_in);
    probe_in[i] = v - kEps;
    const Tensor<double> o2 = scalar_ref::forward(net, probe_in);
    probe_in[i] = v;
    const double num = (probe_loss(o1, probe) - probe_loss(o2, probe)) / (2 * kEps);
    expect_close(gin[i], num, "gin", i);
  }
  // Weight and bias gradients.
  for (std::size_t i = 0; i < gw.size(); ++i) {
    const auto w = [i](auto p) -> double& { return p[0].weights[i]; };
    expect_close(gw[i], param_grad(net, in, w, probe), "gw", i);
  }
  for (std::size_t i = 0; i < gb.size(); ++i) {
    const auto b = [i](auto p) -> double& { return p[0].biases[i]; };
    expect_close(gb[i], param_grad(net, in, b, probe), "gb", i);
  }
}

/// A one-layer network with its weights (then biases, when `bias_scale` is
/// non-zero) drawn from N(0, scale^2) in turn.
Network<double> randomized(const SpecBuilder& b, std::uint64_t seed,
                           double bias_scale = 0.1) {
  auto net = one_layer<double>(b);
  Rng rng(seed);
  net.update_params([&](auto p) {
    for (auto& w : p[0].weights) w = rng.normal() * 0.4;
    if (bias_scale != 0)
      for (auto& v : p[0].biases) v = rng.normal() * bias_scale;
  });
  return net;
}

Tensor<double> smooth_input(tensor::Shape s, std::uint64_t seed) {
  Tensor<double> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal() * 0.7;
  return t;
}

TEST(GradCheck, ConvBasic) {
  auto conv = randomized(SpecBuilder("t", chw(2, 5, 5), 0).conv(3, 3, 1, 1), 1);
  grad_check(conv, smooth_input(chw(2, 5, 5), 2));
}

TEST(GradCheck, ConvStride2NoPad) {
  auto conv = randomized(SpecBuilder("t", chw(2, 7, 7), 0).conv(2, 3, 2, 0), 3);
  grad_check(conv, smooth_input(chw(2, 7, 7), 4));
}

TEST(GradCheck, Conv1x1) {
  auto conv =
      randomized(SpecBuilder("t", chw(3, 4, 4), 0).conv(2, 1, 1, 0), 5, 0);
  grad_check(conv, smooth_input(chw(3, 4, 4), 6));
}

TEST(GradCheck, FullyConnected) {
  auto fc = randomized(SpecBuilder("t", vec(6), 0).fc(4), 7);
  grad_check(fc, smooth_input(vec(6), 8));
}

TEST(GradCheck, ReluAwayFromKink) {
  auto relu = one_layer<double>(SpecBuilder("t", vec(12), 0).relu());
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor<double> in = smooth_input(vec(12), 9);
  for (std::size_t i = 0; i < in.size(); ++i)
    if (std::abs(in[i]) < 0.05) in[i] = 0.2;
  grad_check(relu, in);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  auto pool = one_layer<double>(SpecBuilder("t", chw(2, 4, 4), 0).maxpool(2, 2));
  Tensor<double> in = smooth_input(chw(2, 4, 4), 10);
  grad_check(pool, in);
}

TEST(GradCheck, Lrn) {
  auto lrn = one_layer<double>(
      SpecBuilder("t", chw(5, 2, 2), 0).lrn(3, 0.5, 0.75, 1.0));
  grad_check(lrn, smooth_input(chw(5, 2, 2), 11));
}

TEST(GradCheck, LrnPaperParameters) {
  auto lrn = one_layer<double>(
      SpecBuilder("t", chw(7, 2, 2), 0).lrn(5, 1e-4, 0.75, 1.0));
  grad_check(lrn, smooth_input(chw(7, 2, 2), 12));
}

TEST(GradCheck, Softmax) {
  auto sm = one_layer<double>(SpecBuilder("t", vec(5), 0).softmax());
  grad_check(sm, smooth_input(vec(5), 13));
}

TEST(GradCheck, GlobalAvgPool) {
  auto gap =
      one_layer<double>(SpecBuilder("t", chw(3, 3, 3), 0).global_avg_pool());
  grad_check(gap, smooth_input(chw(3, 3, 3), 14));
}

}  // namespace
}  // namespace dnnfi::dnn
