// Layer-level correctness: forward semantics vs. independent references, and
// bit-exact fault-hook behaviour (the heart of the injection methodology).
// Each layer runs as a one-layer network (scalar_ref::one_layer); its fault
// hooks are apply_faults on that network's plan step.
#include <gtest/gtest.h>

#include <cmath>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using numeric::Fx16r10;
using numeric::Half;
using scalar_ref::one_layer;
using tensor::chw;
using tensor::Tensor;
using tensor::vec;

/// Independent double-precision conv reference (no shared code with the
/// conv kernels).
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

/// A one-layer conv network on inputs shaped `in`, with deterministic
/// pseudo-random parameters.
template <typename T>
Network<T> random_conv(tensor::Shape in, std::size_t out_c, std::size_t k,
                       std::size_t stride, std::size_t pad,
                       std::uint64_t seed) {
  auto conv = one_layer<T>(SpecBuilder("t", in, 0).conv(out_c, k, stride, pad));
  Rng rng(seed);
  conv.update_params([&](auto p) {
    for (auto& w : p[0].weights)
      w = numeric::numeric_traits<T>::from_double(rng.normal() * 0.3);
    for (auto& b : p[0].biases)
      b = numeric::numeric_traits<T>::from_double(rng.normal() * 0.1);
  });
  return conv;
}

/// apply_faults on the one step of `net`, on the scalar set.
template <typename T>
void patch(const Network<T>& net, const Tensor<T>& in, Tensor<T>& out,
           const LayerFaults& faults, InjectionRecord* rec) {
  apply_faults(net.plan().steps()[0], in, out, faults, rec,
               kernels::scalar_kernels<T>());
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
    const auto conv =
        random_conv<double>(chw(g.in_c, g.h, g.w), g.out_c, g.k, g.stride,
                            g.pad, 100 + static_cast<std::uint64_t>(idx));
    const auto in = random_input<double>(chw(g.in_c, g.h, g.w),
                                         200 + static_cast<std::uint64_t>(idx));
    const Tensor<double> out = scalar_ref::forward(conv, in);

    const LayerParams<double>& p = conv.params()[0];
    Tensor<double> w(tensor::oihw(g.out_c, g.in_c, g.k, g.k));
    std::copy(p.weights.begin(), p.weights.end(), w.data().begin());
    const std::vector<double>& b = p.biases;
    const auto ref = conv_reference(in, w, b, g.stride, g.pad);

    ASSERT_EQ(out.shape(), ref.shape()) << "geometry " << idx;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_NEAR(out[i], ref[i], 1e-9) << "geometry " << idx << " elem " << i;
    ++idx;
  }
}

TEST(Conv2d, MacCountMatchesDefinition) {
  const auto direct =
      one_layer<float>(SpecBuilder("t", chw(3, 16, 16), 0).conv(8, 5, 1, 2));
  const PlanStep<float>& st = direct.plan().steps()[0];
  EXPECT_EQ(st.macs, 8U * 16U * 16U * (3U * 5U * 5U));
  EXPECT_EQ(st.conv.steps(), 75U);
  EXPECT_EQ(direct.total_weights(), 8U * 75U);
}

TEST(Conv2d, OutShapeHonorsStrideAndPad) {
  const LayerSpec conv =
      SpecBuilder("t", chw(3, 48, 48), 0).conv(4, 5, 2, 2).build().layers[0];
  EXPECT_EQ(shape_after(conv, chw(3, 48, 48)), chw(4, 24, 24));
  // A kernel wider than the padded input has no output.
  EXPECT_THROW(shape_after(conv, chw(3, 48, 0)), dnnfi::ContractViolation);
}

TEST(Conv2d, MacFaultAccumulatorFlipChangesExactlyOneOutput) {
  const auto conv = random_conv<float>(chw(2, 6, 6), 3, 3, 1, 1, 7);
  const auto in = random_input<float>(chw(2, 6, 6), 8);
  const Tensor<float> golden = scalar_ref::forward(conv, in);

  LayerFaults faults;
  MacFault mf;
  mf.out_index = 17;
  mf.step = 5;
  mf.site = MacSite::kAccumulator;
  mf.op = fault::FaultOp::flip(30);  // float high exponent bit
  faults.mac = mf;

  Tensor<float> faulty = golden;
  InjectionRecord rec;
  patch(conv, in, faulty, faults, &rec);

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
  auto conv = random_conv<float>(chw(1, 3, 3), 1, 3, 1, 0, 9);
  // Zero bias isolates the accumulator value.
  conv.update_params([](auto p) {
    for (auto& b : p[0].biases) b = 0.0F;
  });
  const auto in = random_input<float>(chw(1, 3, 3), 10);
  const Tensor<float> golden = scalar_ref::forward(conv, in);

  LayerFaults faults;
  MacFault mf;
  mf.out_index = 0;
  mf.step = conv.plan().steps()[0].conv.steps() - 1;
  mf.site = MacSite::kAccumulator;
  mf.op = fault::FaultOp::flip(12);
  faults.mac = mf;
  Tensor<float> faulty = golden;
  patch(conv, in, faulty, faults, nullptr);
  EXPECT_EQ(numeric::numeric_traits<float>::to_bits(faulty[0]),
            numeric::numeric_traits<float>::to_bits(
                numeric::flip_bit(golden[0], 12)));
}

TEST(Conv2d, OperandFaultOnPaddedTapFlipsZero) {
  // Step 0 of output (0,0,0) with pad=1 reads a padded zero; flipping its
  // sign bit yields -0 and the output must stay bit-identical except via
  // the multiply (0 * w = -0 or 0). The fault is applied, not skipped.
  const auto conv = random_conv<float>(chw(1, 4, 4), 1, 3, 1, 1, 11);
  const auto in = random_input<float>(chw(1, 4, 4), 12);
  const Tensor<float> golden = scalar_ref::forward(conv, in);
  LayerFaults faults;
  MacFault mf;
  mf.out_index = 0;
  mf.step = 0;  // (ci=0, ky=0, kx=0) is in the padding for output (0,0)
  mf.site = MacSite::kOperandAct;
  mf.op = fault::FaultOp::flip(31);
  faults.mac = mf;
  InjectionRecord rec;
  Tensor<float> faulty = golden;
  patch(conv, in, faulty, faults, &rec);
  EXPECT_TRUE(rec.applied);
  EXPECT_EQ(rec.corrupted_before, 0.0);
  EXPECT_EQ(faulty[0], golden[0]);  // -0 * w == -(0 * w), sums equal
}

TEST(Conv2d, WeightFaultAffectsOnlyItsOutputChannel) {
  const auto conv = random_conv<float>(chw(2, 5, 5), 3, 3, 1, 1, 13);
  const auto in = random_input<float>(chw(2, 5, 5), 14);
  const Tensor<float> golden = scalar_ref::forward(conv, in);

  LayerFaults faults;
  WeightFault wf;
  wf.weight_index = 2 * 3 * 3 * 1 + 4;  // a weight of channel co=1
  wf.op = fault::FaultOp::flip(28);
  faults.weight = wf;
  Tensor<float> faulty = golden;
  patch(conv, in, faulty, faults, nullptr);

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
  auto conv = random_conv<float>(chw(2, 5, 5), 2, 3, 1, 0, 15);
  const auto in = random_input<float>(chw(2, 5, 5), 16);
  const Tensor<float> golden = scalar_ref::forward(conv, in);

  const std::size_t wi = 7;
  const int bit = 20;
  LayerFaults faults;
  faults.weight = WeightFault{wi, fault::FaultOp::flip(bit), {}};
  Tensor<float> faulty = golden;
  patch(conv, in, faulty, faults, nullptr);

  // Reference: flip the weight in place and run a clean forward.
  conv.update_params([&](auto p) {
    p[0].weights[wi] = numeric::flip_bit(p[0].weights[wi], bit);
  });
  const Tensor<float> ref = scalar_ref::forward(conv, in);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(numeric::numeric_traits<float>::to_bits(faulty[i]),
              numeric::numeric_traits<float>::to_bits(ref[i]));
}

TEST(Conv2d, ScopedInputFaultAffectsOnlyOneRow) {
  const auto conv = random_conv<float>(chw(1, 6, 6), 2, 3, 1, 1, 17);
  const auto in = random_input<float>(chw(1, 6, 6), 18);
  const Tensor<float> golden = scalar_ref::forward(conv, in);

  LayerFaults faults;
  ScopedInputFault sf;
  sf.input_index = in.shape().index(0, 0, 2, 3);
  sf.out_channel = 1;
  sf.out_row = 2;
  sf.op = fault::FaultOp::flip(27);
  faults.scoped_input = sf;
  Tensor<float> faulty = golden;
  patch(conv, in, faulty, faults, nullptr);

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
  auto direct =
      one_layer<Fx16r10>(SpecBuilder("t", chw(1, 1, 1), 0).conv(1, 1, 1, 0));
  direct.update_params([](auto p) {
    p[0].weights[0] = Fx16r10(30.0);
    p[0].biases[0] = Fx16r10(0.0);
  });
  Tensor<Fx16r10> in(chw(1, 1, 1));
  in[0] = Fx16r10(30.0);
  const Tensor<Fx16r10> out = scalar_ref::forward(direct, in);
  EXPECT_EQ(out[0].raw(), Fx16r10::kRawMax);  // 900 saturates at ~32
}

TEST(FullyConnected, MatchesManualDotProduct) {
  auto fc = one_layer<double>(SpecBuilder("t", vec(3), 0).fc(2));
  fc.update_params([](auto p) {
    auto& w = p[0].weights;
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = 0.5 * static_cast<double>(i);
    p[0].biases[0] = 1.0;
    p[0].biases[1] = -1.0;
  });
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
  auto fc = one_layer<float>(SpecBuilder("t", vec(4), 0).fc(3));
  Rng rng(19);
  fc.update_params([&](auto p) {
    for (auto& w : p[0].weights) w = static_cast<float>(rng.normal());
  });
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
  patch(fc, in, faulty, faults, &rec);
  EXPECT_EQ(faulty[0], golden[0]);
  EXPECT_EQ(faulty[1], golden[1]);
  EXPECT_NE(faulty[2], golden[2]);
  EXPECT_EQ(rec.corrupted_before,
            static_cast<double>(fc.params()[0].weights[2 * 4 + 1]));
}

TEST(FullyConnected, WeightFaultAffectsSingleOutput) {
  auto fc = one_layer<float>(SpecBuilder("t", vec(5), 0).fc(4));
  Rng rng(21);
  fc.update_params([&](auto p) {
    for (auto& w : p[0].weights) w = static_cast<float>(rng.normal());
  });
  const auto in = random_input<float>(vec(5), 22);
  const Tensor<float> golden = scalar_ref::forward(fc, in);
  LayerFaults faults;
  // Weight of output 3.
  faults.weight = WeightFault{3 * 5 + 2, fault::FaultOp::flip(22), {}};
  Tensor<float> faulty = golden;
  patch(fc, in, faulty, faults, nullptr);
  for (std::size_t o = 0; o < 4; ++o) {
    if (o == 3) EXPECT_NE(faulty[o], golden[o]);
    else EXPECT_EQ(faulty[o], golden[o]);
  }
}

TEST(Relu, ClampsNegatives) {
  const auto relu = one_layer<float>(SpecBuilder("t", vec(4), 0).relu());
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
  const auto relu = one_layer<Half>(SpecBuilder("t", vec(1), 0).relu());
  Tensor<Half> in(vec(1));
  in[0] = Half(-60000.0F);
  const Tensor<Half> out = scalar_ref::forward(relu, in);
  EXPECT_EQ(static_cast<float>(out[0]), 0.0F);
}

TEST(MaxPool, SelectsWindowMaxima) {
  const auto pool =
      one_layer<float>(SpecBuilder("t", chw(1, 4, 4), 0).maxpool(2, 2));
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
  const auto pool =
      one_layer<float>(SpecBuilder("t", chw(1, 2, 2), 0).maxpool(2, 2));
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
  const auto lrn = one_layer<double>(
      SpecBuilder("t", chw(1, 1, 1), 0).lrn(1, 0.5, 0.75, 2.0));
  Tensor<double> in(chw(1, 1, 1));
  in[0] = 3.0;
  const Tensor<double> out = scalar_ref::forward(lrn, in);
  EXPECT_NEAR(out[0], 3.0 / std::pow(2.0 + 0.5 * 9.0, 0.75), 1e-12);
}

TEST(Lrn, CrossChannelNormalization) {
  // size=3 over 3 channels: middle channel sees all three.
  const auto lrn = one_layer<double>(  // alpha/n = 1
      SpecBuilder("t", chw(3, 1, 1), 0).lrn(3, 3.0, 0.5, 1.0));
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
  const auto lrn = one_layer<float>(
      SpecBuilder("t", chw(5, 1, 1), 0).lrn(5, 1e-2, 0.75, 1.0));
  Tensor<float> in(chw(5, 1, 1));
  for (std::size_t c = 0; c < 5; ++c) in.at(0, c, 0, 0) = 1.0F;
  const Tensor<float> clean = scalar_ref::forward(lrn, in);
  in.at(0, 2, 0, 0) = 10000.0F;
  const Tensor<float> faulty = scalar_ref::forward(lrn, in);
  const double amplification = faulty.at(0, 2, 0, 0) / clean.at(0, 2, 0, 0);
  EXPECT_LT(amplification, 2000.0);  // strongly sub-proportional to 10^4
}

TEST(Softmax, NormalizesAndOrders) {
  const auto sm = one_layer<float>(SpecBuilder("t", vec(3), 0).softmax());
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
  const auto sm = one_layer<Half>(SpecBuilder("t", vec(2), 0).softmax());
  Tensor<Half> in(vec(2));
  in[0] = Half(60000.0F);
  in[1] = Half(1.0F);
  const Tensor<Half> out = scalar_ref::forward(sm, in);
  EXPECT_NEAR(static_cast<float>(out[0]), 1.0F, 1e-3F);
}

TEST(Softmax, NanInputDoesNotPoisonOthers) {
  const auto sm = one_layer<float>(SpecBuilder("t", vec(2), 0).softmax());
  Tensor<float> in(vec(2));
  in[0] = std::nanf("");
  in[1] = 1.0F;
  const Tensor<float> out = scalar_ref::forward(sm, in);
  EXPECT_NEAR(out[1], 1.0F, 1e-6F);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  const auto gap =
      one_layer<float>(SpecBuilder("t", chw(2, 2, 2), 0).global_avg_pool());
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
