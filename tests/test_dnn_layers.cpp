// Layer-level correctness: forward semantics vs. independent references, and
// bit-exact fault-hook behaviour (the heart of the injection methodology).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using numeric::Fx16r10;
using numeric::Half;
using tensor::chw;
using tensor::Tensor;
using tensor::vec;

/// Independent double-precision conv reference (no shared code with Conv2d).
Tensor<double> conv_reference(const Tensor<double>& in,
                              const Tensor<double>& w,
                              const std::vector<double>& bias,
                              std::size_t stride, std::size_t pad) {
  const auto& is = in.shape();
  const auto& ws = w.shape();
  const std::size_t oh = (is.h + 2 * pad - ws.h) / stride + 1;
  const std::size_t ow = (is.w + 2 * pad - ws.w) / stride + 1;
  Tensor<double> out(chw(ws.n, oh, ow));
  for (std::size_t co = 0; co < ws.n; ++co)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double acc = bias[co];
        for (std::size_t ci = 0; ci < ws.c; ++ci)
          for (std::size_t ky = 0; ky < ws.h; ++ky)
            for (std::size_t kx = 0; kx < ws.w; ++kx) {
              const auto iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                              static_cast<std::ptrdiff_t>(pad);
              const auto ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                              static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(is.h) || ix < 0 ||
                  ix >= static_cast<std::ptrdiff_t>(is.w))
                continue;
              acc += w.at(co, ci, ky, kx) *
                     in.at(0, ci, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix));
            }
        out.at(0, co, oy, ox) = acc;
      }
  return out;
}

/// Builds a conv layer with deterministic pseudo-random parameters.
template <typename T>
std::unique_ptr<Conv2d<T>> random_conv(std::size_t in_c, std::size_t out_c,
                                       std::size_t k, std::size_t stride,
                                       std::size_t pad, std::uint64_t seed) {
  auto conv = std::make_unique<Conv2d<T>>("conv", 1, in_c, out_c, k, stride, pad);
  Rng rng(seed);
  for (auto& w : conv->weights())
    w = numeric::numeric_traits<T>::from_double(rng.normal() * 0.3);
  for (auto& b : conv->biases())
    b = numeric::numeric_traits<T>::from_double(rng.normal() * 0.1);
  return conv;
}

template <typename T>
Tensor<T> random_input(tensor::Shape s, std::uint64_t seed, double scale = 1.0) {
  Tensor<T> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = numeric::numeric_traits<T>::from_double(rng.normal() * scale);
  return t;
}

TEST(Conv2d, MatchesReferenceAcrossGeometries) {
  struct Geometry {
    std::size_t in_c, out_c, k, stride, pad, h, w;
  };
  const Geometry geos[] = {
      {1, 1, 1, 1, 0, 4, 4},  {1, 2, 3, 1, 0, 6, 6},  {3, 4, 3, 1, 1, 5, 7},
      {2, 3, 5, 2, 2, 9, 9},  {4, 2, 3, 2, 0, 8, 8},  {3, 5, 5, 1, 2, 6, 6},
  };
  int idx = 0;
  for (const auto& g : geos) {
    auto conv = random_conv<double>(g.in_c, g.out_c, g.k, g.stride, g.pad,
                                    100 + static_cast<std::uint64_t>(idx));
    const auto in = random_input<double>(chw(g.in_c, g.h, g.w),
                                         200 + static_cast<std::uint64_t>(idx));
    const Tensor<double> out = scalar_ref::forward(*conv, in);

    Tensor<double> w(tensor::oihw(g.out_c, g.in_c, g.k, g.k));
    std::copy(conv->weights().begin(), conv->weights().end(), w.data().begin());
    std::vector<double> b(conv->biases().begin(), conv->biases().end());
    const auto ref = conv_reference(in, w, b, g.stride, g.pad);

    ASSERT_EQ(out.shape(), ref.shape()) << "geometry " << idx;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_NEAR(out[i], ref[i], 1e-9) << "geometry " << idx << " elem " << i;
    ++idx;
  }
}

TEST(Conv2d, MacCountMatchesDefinition) {
  Conv2d<float> direct("c", 1, 3, 8, 5, 1, 2);
  const auto in_shape = chw(3, 16, 16);
  EXPECT_EQ(direct.macs(in_shape), 8U * 16U * 16U * (3U * 5U * 5U));
  EXPECT_EQ(direct.steps(), 75U);
}

TEST(Conv2d, OutShapeHonorsStrideAndPad) {
  Conv2d<float> direct("c", 1, 3, 4, 5, 2, 2);
  const auto os = direct.out_shape(chw(3, 48, 48));
  EXPECT_EQ(os, chw(4, 24, 24));
  EXPECT_THROW(direct.out_shape(chw(2, 48, 48)), dnnfi::ContractViolation);
}

TEST(Conv2d, MacFaultAccumulatorFlipChangesExactlyOneOutput) {
  auto conv = random_conv<float>(2, 3, 3, 1, 1, 7);
  const auto in = random_input<float>(chw(2, 6, 6), 8);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);

  LayerFaults faults;
  MacFault mf;
  mf.out_index = 17;
  mf.step = 5;
  mf.site = MacSite::kAccumulator;
  mf.op = fault::FaultOp::flip(30);  // float high exponent bit
  faults.mac = mf;

  Tensor<float> faulty = golden;
  InjectionRecord rec;
  conv->apply_faults(in, faulty, faults, &rec,
                     kernels::scalar_kernels<float>());

  EXPECT_TRUE(rec.applied);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    if (golden[i] != faulty[i]) ++diffs;
  EXPECT_EQ(diffs, 1U);
  EXPECT_NE(faulty[17], golden[17]);
  EXPECT_EQ(rec.act_before, static_cast<double>(golden[17]));
  EXPECT_EQ(rec.act_after, static_cast<double>(faulty[17]));
}

TEST(Conv2d, MacFaultLastStepAccumulatorFlipIsExactBitFlipOfPreBias) {
  // Flipping the accumulator after the LAST step corrupts the completed
  // dot product before the bias add — verify bit-exactness end to end.
  auto conv = random_conv<float>(1, 1, 3, 1, 0, 9);
  // Zero bias isolates the accumulator value.
  for (auto& b : conv->biases()) b = 0.0F;
  const auto in = random_input<float>(chw(1, 3, 3), 10);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);

  LayerFaults faults;
  MacFault mf;
  mf.out_index = 0;
  mf.step = conv->steps() - 1;
  mf.site = MacSite::kAccumulator;
  mf.op = fault::FaultOp::flip(12);
  faults.mac = mf;
  Tensor<float> faulty = golden;
  conv->apply_faults(in, faulty, faults, nullptr,
                     kernels::scalar_kernels<float>());
  EXPECT_EQ(numeric::numeric_traits<float>::to_bits(faulty[0]),
            numeric::numeric_traits<float>::to_bits(
                numeric::flip_bit(golden[0], 12)));
}

TEST(Conv2d, OperandFaultOnPaddedTapFlipsZero) {
  // Step 0 of output (0,0,0) with pad=1 reads a padded zero; flipping its
  // sign bit yields -0 and the output must stay bit-identical except via
  // the multiply (0 * w = -0 or 0). The fault is applied, not skipped.
  auto conv = random_conv<float>(1, 1, 3, 1, 1, 11);
  const auto in = random_input<float>(chw(1, 4, 4), 12);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);
  LayerFaults faults;
  MacFault mf;
  mf.out_index = 0;
  mf.step = 0;  // (ci=0, ky=0, kx=0) is in the padding for output (0,0)
  mf.site = MacSite::kOperandAct;
  mf.op = fault::FaultOp::flip(31);
  faults.mac = mf;
  InjectionRecord rec;
  Tensor<float> faulty = golden;
  conv->apply_faults(in, faulty, faults, &rec,
                     kernels::scalar_kernels<float>());
  EXPECT_TRUE(rec.applied);
  EXPECT_EQ(rec.corrupted_before, 0.0);
  EXPECT_EQ(faulty[0], golden[0]);  // -0 * w == -(0 * w), sums equal
}

TEST(Conv2d, WeightFaultAffectsOnlyItsOutputChannel) {
  auto conv = random_conv<float>(2, 3, 3, 1, 1, 13);
  const auto in = random_input<float>(chw(2, 5, 5), 14);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);

  LayerFaults faults;
  WeightFault wf;
  wf.weight_index = conv->steps() * 1 + 4;  // a weight of channel co=1
  wf.op = fault::FaultOp::flip(28);
  faults.weight = wf;
  Tensor<float> faulty = golden;
  conv->apply_faults(in, faulty, faults, nullptr,
                     kernels::scalar_kernels<float>());

  const auto os = golden.shape();
  for (std::size_t co = 0; co < os.c; ++co) {
    bool changed = false;
    for (std::size_t y = 0; y < os.h; ++y)
      for (std::size_t x = 0; x < os.w; ++x)
        changed |= (golden.at(0, co, y, x) != faulty.at(0, co, y, x));
    if (co == 1) {
      EXPECT_TRUE(changed) << "corrupted channel must change";
    } else {
      EXPECT_FALSE(changed) << "channel " << co << " must be untouched";
    }
  }
}

TEST(Conv2d, WeightFaultEqualsForwardWithFlippedWeight) {
  auto conv = random_conv<float>(2, 2, 3, 1, 0, 15);
  const auto in = random_input<float>(chw(2, 5, 5), 16);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);

  const std::size_t wi = 7;
  const int bit = 20;
  LayerFaults faults;
  faults.weight = WeightFault{wi, fault::FaultOp::flip(bit), {}};
  Tensor<float> faulty = golden;
  conv->apply_faults(in, faulty, faults, nullptr,
                     kernels::scalar_kernels<float>());

  // Reference: flip the weight in place and run a clean forward.
  conv->weights()[wi] = numeric::flip_bit(conv->weights()[wi], bit);
  const Tensor<float> ref = scalar_ref::forward(*conv, in);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(numeric::numeric_traits<float>::to_bits(faulty[i]),
              numeric::numeric_traits<float>::to_bits(ref[i]));
}

TEST(Conv2d, ScopedInputFaultAffectsOnlyOneRow) {
  auto conv = random_conv<float>(1, 2, 3, 1, 1, 17);
  const auto in = random_input<float>(chw(1, 6, 6), 18);
  const Tensor<float> golden = scalar_ref::forward(*conv, in);

  LayerFaults faults;
  ScopedInputFault sf;
  sf.input_index = in.shape().index(0, 0, 2, 3);
  sf.out_channel = 1;
  sf.out_row = 2;
  sf.op = fault::FaultOp::flip(27);
  faults.scoped_input = sf;
  Tensor<float> faulty = golden;
  conv->apply_faults(in, faulty, faults, nullptr,
                     kernels::scalar_kernels<float>());

  const auto os = golden.shape();
  for (std::size_t co = 0; co < os.c; ++co)
    for (std::size_t y = 0; y < os.h; ++y)
      for (std::size_t x = 0; x < os.w; ++x) {
        const bool changed =
            golden.at(0, co, y, x) != faulty.at(0, co, y, x);
        if (!(co == 1 && y == 2)) {
          EXPECT_FALSE(changed);
        }
      }
  // And the scoped row does change (input (2,3) is in row 2's receptive field).
  bool row_changed = false;
  for (std::size_t x = 0; x < os.w; ++x)
    row_changed |= (golden.at(0, 1, 2, x) != faulty.at(0, 1, 2, x));
  EXPECT_TRUE(row_changed);
}

TEST(Conv2d, FixedPointMacSaturatesInsteadOfWrapping) {
  Conv2d<Fx16r10> direct("c", 1, 1, 1, 1, 1, 0);
  direct.weights()[0] = Fx16r10(30.0);
  direct.biases()[0] = Fx16r10(0.0);
  Tensor<Fx16r10> in(chw(1, 1, 1));
  in[0] = Fx16r10(30.0);
  const Tensor<Fx16r10> out = scalar_ref::forward(direct, in);
  EXPECT_EQ(out[0].raw(), Fx16r10::kRawMax);  // 900 saturates at ~32
}

TEST(FullyConnected, MatchesManualDotProduct) {
  FullyConnected<double> fc("fc", 1, 3, 2);
  auto w = fc.weights();
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 0.5 * static_cast<double>(i);
  fc.biases()[0] = 1.0;
  fc.biases()[1] = -1.0;
  Tensor<double> in(vec(3));
  in[0] = 1.0;
  in[1] = 2.0;
  in[2] = 3.0;
  const Tensor<double> out = scalar_ref::forward(fc, in);
  // out0 = 0*1 + 0.5*2 + 1*3 + 1 = 5; out1 = 1.5*1 + 2*2 + 2.5*3 - 1 = 12.
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 12.0);
}

TEST(FullyConnected, MacFaultOperandWeight) {
  FullyConnected<float> fc("fc", 1, 4, 3);
  Rng rng(19);
  for (auto& w : fc.weights()) w = static_cast<float>(rng.normal());
  const auto in = random_input<float>(vec(4), 20);
  const Tensor<float> golden = scalar_ref::forward(fc, in);
  LayerFaults faults;
  MacFault mf;
  mf.out_index = 2;
  mf.step = 1;
  mf.site = MacSite::kOperandWeight;
  mf.op = fault::FaultOp::flip(25);
  faults.mac = mf;
  Tensor<float> faulty = golden;
  InjectionRecord rec;
  fc.apply_faults(in, faulty, faults, &rec,
                  kernels::scalar_kernels<float>());
  EXPECT_EQ(faulty[0], golden[0]);
  EXPECT_EQ(faulty[1], golden[1]);
  EXPECT_NE(faulty[2], golden[2]);
  EXPECT_EQ(rec.corrupted_before, static_cast<double>(fc.weights()[2 * 4 + 1]));
}

TEST(FullyConnected, WeightFaultAffectsSingleOutput) {
  FullyConnected<float> fc("fc", 1, 5, 4);
  Rng rng(21);
  for (auto& w : fc.weights()) w = static_cast<float>(rng.normal());
  const auto in = random_input<float>(vec(5), 22);
  const Tensor<float> golden = scalar_ref::forward(fc, in);
  LayerFaults faults;
  // Weight of output 3.
  faults.weight = WeightFault{3 * 5 + 2, fault::FaultOp::flip(22), {}};
  Tensor<float> faulty = golden;
  fc.apply_faults(in, faulty, faults, nullptr,
                  kernels::scalar_kernels<float>());
  for (std::size_t o = 0; o < 4; ++o) {
    if (o == 3) EXPECT_NE(faulty[o], golden[o]);
    else EXPECT_EQ(faulty[o], golden[o]);
  }
}

TEST(Relu, ClampsNegatives) {
  Relu<float> relu("relu", 1);
  Tensor<float> in(vec(4));
  in[0] = -1.0F;
  in[1] = 0.0F;
  in[2] = 2.5F;
  in[3] = -0.0F;
  const Tensor<float> out = scalar_ref::forward(relu, in);
  EXPECT_EQ(out[0], 0.0F);
  EXPECT_EQ(out[1], 0.0F);
  EXPECT_EQ(out[2], 2.5F);
  EXPECT_EQ(out[3], 0.0F);
}

TEST(Relu, MasksNegativeCorruption) {
  // A corrupted hugely-negative value is fully masked by ReLU — one of the
  // paper's masking mechanisms.
  Relu<Half> relu("relu", 1);
  Tensor<Half> in(vec(1));
  in[0] = Half(-60000.0F);
  const Tensor<Half> out = scalar_ref::forward(relu, in);
  EXPECT_EQ(static_cast<float>(out[0]), 0.0F);
}

TEST(MaxPool, SelectsWindowMaxima) {
  MaxPool2d<float> pool("pool", 1, 2, 2);
  Tensor<float> in(chw(1, 4, 4));
  for (std::size_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
  const Tensor<float> out = scalar_ref::forward(pool, in);
  ASSERT_EQ(out.shape(), chw(1, 2, 2));
  EXPECT_EQ(out.at(0, 0, 0, 0), 5.0F);
  EXPECT_EQ(out.at(0, 0, 0, 1), 7.0F);
  EXPECT_EQ(out.at(0, 0, 1, 0), 13.0F);
  EXPECT_EQ(out.at(0, 0, 1, 1), 15.0F);
}

TEST(MaxPool, MasksNonMaximalCorruption) {
  MaxPool2d<float> pool("pool", 1, 2, 2);
  Tensor<float> in(chw(1, 2, 2));
  in[0] = 1.0F;
  in[1] = 9.0F;
  in[2] = 2.0F;
  in[3] = 3.0F;
  const Tensor<float> clean = scalar_ref::forward(pool, in);
  in[0] = -5000.0F;  // corrupt a discarded element
  const Tensor<float> faulty = scalar_ref::forward(pool, in);
  EXPECT_EQ(clean[0], faulty[0]);
}

TEST(Lrn, MatchesClosedFormSingleChannelWindow) {
  // size=1 window: out = v / (k + alpha * v^2)^beta.
  Lrn<double> lrn("lrn", 1, 1, 0.5, 0.75, 2.0);
  Tensor<double> in(chw(1, 1, 1));
  in[0] = 3.0;
  const Tensor<double> out = scalar_ref::forward(lrn, in);
  EXPECT_NEAR(out[0], 3.0 / std::pow(2.0 + 0.5 * 9.0, 0.75), 1e-12);
}

TEST(Lrn, CrossChannelNormalization) {
  // size=3 over 3 channels: middle channel sees all three.
  Lrn<double> lrn("lrn", 1, 3, 3.0, 0.5, 1.0);  // alpha/n = 1
  Tensor<double> in(chw(3, 1, 1));
  in[0] = 1.0;
  in[1] = 2.0;
  in[2] = 2.0;
  const Tensor<double> out = scalar_ref::forward(lrn, in);
  // denom(c=1) = sqrt(1 + (1+4+4)) = sqrt(10).
  EXPECT_NEAR(out[1], 2.0 / std::sqrt(10.0), 1e-12);
  // denom(c=0) = sqrt(1 + (1+4)) = sqrt(6) (window clipped at the edge).
  EXPECT_NEAR(out[0], 1.0 / std::sqrt(6.0), 1e-12);
}

TEST(Lrn, DampensOutlierRelativeToNeighbors) {
  // LRN must shrink a huge corrupted value far more than proportionally —
  // the masking effect of Fig 7.
  Lrn<float> lrn("lrn", 1, 5, 1e-2, 0.75, 1.0);
  Tensor<float> in(chw(5, 1, 1));
  for (std::size_t c = 0; c < 5; ++c) in.at(0, c, 0, 0) = 1.0F;
  const Tensor<float> clean = scalar_ref::forward(lrn, in);
  in.at(0, 2, 0, 0) = 10000.0F;
  const Tensor<float> faulty = scalar_ref::forward(lrn, in);
  const double amplification = faulty.at(0, 2, 0, 0) / clean.at(0, 2, 0, 0);
  EXPECT_LT(amplification, 2000.0);  // strongly sub-proportional to 10^4
}

TEST(Softmax, NormalizesAndOrders) {
  Softmax<float> sm("softmax", 1);
  Tensor<float> in(vec(3));
  in[0] = 1.0F;
  in[1] = 2.0F;
  in[2] = 3.0F;
  const Tensor<float> out = scalar_ref::forward(sm, in);
  double sum = 0;
  for (std::size_t i = 0; i < 3; ++i) sum += static_cast<double>(out[i]);
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_GT(out[2], out[1]);
  EXPECT_GT(out[1], out[0]);
}

TEST(Softmax, StableUnderHugeCorruptedInput) {
  Softmax<Half> sm("softmax", 1);
  Tensor<Half> in(vec(2));
  in[0] = Half(60000.0F);
  in[1] = Half(1.0F);
  const Tensor<Half> out = scalar_ref::forward(sm, in);
  EXPECT_NEAR(static_cast<float>(out[0]), 1.0F, 1e-3F);
}

TEST(Softmax, NanInputDoesNotPoisonOthers) {
  Softmax<float> sm("softmax", 1);
  Tensor<float> in(vec(2));
  in[0] = std::nanf("");
  in[1] = 1.0F;
  const Tensor<float> out = scalar_ref::forward(sm, in);
  EXPECT_NEAR(out[1], 1.0F, 1e-6F);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  GlobalAvgPool<float> gap("gap", 1);
  Tensor<float> in(chw(2, 2, 2));
  for (std::size_t i = 0; i < 4; ++i) in[i] = 2.0F;
  for (std::size_t i = 4; i < 8; ++i) in[i] = static_cast<float>(i);
  const Tensor<float> out = scalar_ref::forward(gap, in);
  ASSERT_EQ(out.shape(), vec(2));
  EXPECT_FLOAT_EQ(out[0], 2.0F);
  EXPECT_FLOAT_EQ(out[1], (4.0F + 5.0F + 6.0F + 7.0F) / 4.0F);
}

}  // namespace
}  // namespace dnnfi::dnn
