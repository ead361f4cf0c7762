// Accelerator-geometry interface conformance and the systolic
// column-propagation law. The law under test (DESIGN.md §11): a corrupt
// partial sum in column `col` at step `s` taints exactly the output
// elements e >= first_out whose output channel maps onto that column
// (channel(e) % cols == col) — each as if an accumulator-latch fault had
// struck it at step `s` — and no other element changes by a single bit.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dnnfi/accel/accelerator.h"
#include "dnnfi/accel/eyeriss.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "dnnfi/dnn/spec.h"
#include "dnnfi/fault/descriptor.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/sampler.h"
#include "scalar_reference.h"

namespace dnnfi {
namespace {

using accel::AcceleratorConfig;
using accel::AcceleratorKind;
using accel::SiteClass;
using tensor::chw;
using tensor::Tensor;

AcceleratorConfig systolic(std::size_t rows, std::size_t cols) {
  AcceleratorConfig cfg;
  cfg.kind = AcceleratorKind::kSystolic;
  cfg.rows = rows;
  cfg.cols = cols;
  return cfg;
}

// ---------------------------------------------------------------------------
// Config parsing: the canonical spelling is the geometry's identity in
// fingerprints and checkpoints, so the round-trip must be exact.

TEST(AcceleratorConfig, ParseRoundTripsCanonicalSpellings) {
  for (const char* s : {"eyeriss", "systolic:16x16", "systolic:8x4",
                        "systolic:1x1", "systolic:256x128"}) {
    const auto cfg = accel::parse_accelerator(s);
    ASSERT_TRUE(cfg.has_value()) << s;
    EXPECT_EQ(cfg->to_string(), s);
  }
  EXPECT_TRUE(accel::parse_accelerator("eyeriss")->is_eyeriss());
  const auto sys = accel::parse_accelerator("systolic:12x34");
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(sys->kind, AcceleratorKind::kSystolic);
  EXPECT_EQ(sys->rows, 12U);
  EXPECT_EQ(sys->cols, 34U);
}

TEST(AcceleratorConfig, ParseRejectsMalformedSpellings) {
  for (const char* s : {"", "tpu", "systolic", "systolic:", "systolic:16",
                        "systolic:16x", "systolic:x16", "systolic:0x16",
                        "systolic:16x0", "systolic:16x16x16", "Eyeriss",
                        "systolic:-4x4",
                        // rows * cols (the PE count) must not wrap.
                        "systolic:4294967296x4294967296",
                        "systolic:18446744073709551615x2"}) {
    EXPECT_FALSE(accel::parse_accelerator(s).has_value()) << s;
  }
}

// ---------------------------------------------------------------------------
// Interface conformance: the Eyeriss model must expose exactly the paper's
// inventory (it IS the seed behaviour), and make_accelerator must dispatch.

TEST(EyerissModel, ConformsToPaperInventory) {
  const accel::AcceleratorModel& m = accel::eyeriss_model();
  EXPECT_STREQ(m.name(), "eyeriss");
  EXPECT_TRUE(m.config().is_eyeriss());
  EXPECT_EQ(m.num_pes(), accel::eyeriss_16nm().num_pes);
  ASSERT_EQ(m.site_classes().size(), accel::kAllSiteClasses.size());
  for (std::size_t i = 0; i < accel::kAllSiteClasses.size(); ++i)
    EXPECT_EQ(m.site_classes()[i], accel::kAllSiteClasses[i]);
  for (const SiteClass c : accel::kAllSiteClasses) EXPECT_TRUE(m.supports(c));
}

TEST(EyerissModel, OccupiedElemsMatchesSharedDataflowAnalysis) {
  const auto spec = dnn::SpecBuilder("g", chw(2, 8, 8), 4)
                        .conv(3, 3, 1, 1).relu().fc(4).softmax().build();
  const auto fps = accel::analyze(spec);
  const accel::AcceleratorModel& m = accel::eyeriss_model();
  for (const auto& fp : fps)
    for (const SiteClass c : accel::kBufferSiteClasses)
      EXPECT_EQ(m.occupied_elems(fp, c),
                accel::occupied_elems(fp, accel::buffer_of(c)));
}

TEST(SystolicArray, InventoryExcludesImgRegAndCountsPes) {
  const auto m = accel::make_accelerator(systolic(8, 12));
  EXPECT_STREQ(m->name(), "systolic");
  EXPECT_EQ(m->num_pes(), 96U);
  EXPECT_FALSE(m->supports(SiteClass::kImgReg));
  for (const SiteClass c :
       {SiteClass::kDatapathLatch, SiteClass::kGlobalBuffer,
        SiteClass::kFilterSram, SiteClass::kPsumReg})
    EXPECT_TRUE(m->supports(c));
  EXPECT_EQ(m->site_classes().size(), 4U);
}

TEST(MakeAccelerator, DispatchesOnKind) {
  EXPECT_STREQ(accel::make_accelerator(AcceleratorConfig{})->name(), "eyeriss");
  const auto m = accel::make_accelerator(systolic(4, 4));
  EXPECT_STREQ(m->name(), "systolic");
  EXPECT_EQ(m->config(), systolic(4, 4));
}

// ---------------------------------------------------------------------------
// Systolic sampling: coordinates stay within the layer footprint and the
// array geometry, and the PE column always matches the output channel's
// round-robin lane (channel % cols) — the invariant the footprint law and
// describe() both build on.

TEST(SystolicArray, SampledCoordinatesRespectGeometryAndFootprint) {
  const auto spec = dnn::SpecBuilder("s", chw(2, 10, 10), 6)
                        .conv(5, 3, 1, 1).relu().fc(6).softmax().build();
  const auto cfg = systolic(8, 4);
  const auto model = accel::make_accelerator(cfg);
  const fault::Sampler sampler(spec, numeric::DType::kFloat16, *model);
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    for (const SiteClass cls : model->site_classes()) {
      const fault::FaultDescriptor f = sampler.sample(cls, rng);
      EXPECT_EQ(f.geom, AcceleratorKind::kSystolic);
      EXPECT_LT(f.pe_row, cfg.rows);
      EXPECT_LT(f.pe_col, cfg.cols);
      const auto& fp = sampler.footprints()[f.mac_ordinal];
      switch (cls) {
        case SiteClass::kDatapathLatch: {
          if (f.latch == accel::DatapathLatch::kOperandWeight) {
            // Stationary weight latch: element is the flat weight index.
            ASSERT_LT(f.element, fp.weight_elems);
          } else {
            ASSERT_LT(f.element, fp.output_elems);
            const std::size_t ch =
                fp.is_conv ? f.element / (fp.out_shape.h * fp.out_shape.w)
                           : f.element;
            EXPECT_EQ(f.pe_col, ch % cfg.cols);
          }
          EXPECT_LT(f.step, fp.steps);
          break;
        }
        case SiteClass::kPsumReg: {
          ASSERT_LT(f.element, fp.output_elems);
          EXPECT_LT(f.step, fp.steps);
          const std::size_t ch =
              fp.is_conv ? f.element / (fp.out_shape.h * fp.out_shape.w)
                         : f.element;
          EXPECT_EQ(f.pe_col, ch % cfg.cols);
          break;
        }
        case SiteClass::kFilterSram:
          ASSERT_LT(f.element, fp.weight_elems);
          EXPECT_EQ(f.pe_col, (f.element / fp.steps) % cfg.cols);
          break;
        case SiteClass::kGlobalBuffer:
          ASSERT_LT(f.element, fp.input_elems);
          break;
        case SiteClass::kImgReg:
          FAIL() << "img-reg must not be sampled on a systolic array";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Systolic lowering semantics, site by site.

TEST(SystolicArray, PsumAndAccumulatorStrikesLowerToColumnFaults) {
  const auto model = accel::make_accelerator(systolic(8, 4));
  for (const bool psum : {true, false}) {
    accel::SiteCoords c;
    c.cls = psum ? SiteClass::kPsumReg : SiteClass::kDatapathLatch;
    c.latch = accel::DatapathLatch::kAccumulator;
    c.element = 37;
    c.step = 5;
    c.pe_col = 2;
    c.pe_row = 5;
    dnn::AppliedFault af;
    model->lower_site(c, fault::FaultOp::flip(9), std::nullopt, af);
    ASSERT_TRUE(af.faults.column.has_value()) << "psum=" << psum;
    EXPECT_FALSE(af.faults.mac.has_value());
    EXPECT_EQ(af.faults.column->col, 2U);
    EXPECT_EQ(af.faults.column->cols, 4U);
    EXPECT_EQ(af.faults.column->first_out, 37U);
    EXPECT_EQ(af.faults.column->step, 5U);
    EXPECT_EQ(af.faults.column->op, fault::FaultOp::flip(9));
  }
}

TEST(SystolicArray, TransientLatchesLowerToSingleMacFaults) {
  const auto model = accel::make_accelerator(systolic(8, 4));
  for (const auto latch :
       {accel::DatapathLatch::kOperandAct, accel::DatapathLatch::kProduct}) {
    accel::SiteCoords c;
    c.cls = SiteClass::kDatapathLatch;
    c.latch = latch;
    c.element = 11;
    c.step = 3;
    dnn::AppliedFault af;
    model->lower_site(c, fault::FaultOp::flip(4), std::nullopt, af);
    ASSERT_TRUE(af.faults.mac.has_value());
    EXPECT_FALSE(af.faults.column.has_value());
    EXPECT_EQ(af.faults.mac->out_index, 11U);
    EXPECT_EQ(af.faults.mac->step, 3U);
  }
}

TEST(SystolicArray, StationaryWeightLatchStrikesTheResidentWeight) {
  // The weight operand latch holds one (channel, step) weight for the whole
  // tile, so a strike is a WeightFault on flat index channel * steps + step.
  const auto spec = dnn::SpecBuilder("w", chw(2, 6, 6), 4)
                        .conv(4, 3, 1, 1).relu().fc(4).softmax().build();
  const auto cfg = systolic(4, 4);
  const auto model = accel::make_accelerator(cfg);
  const fault::Sampler sampler(spec, numeric::DType::kFloat16, *model);
  fault::SampleConstraint constraint;
  constraint.fixed_latch = accel::DatapathLatch::kOperandWeight;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto f =
        sampler.sample(SiteClass::kDatapathLatch, rng, constraint);
    const auto& fp = sampler.footprints()[f.mac_ordinal];
    ASSERT_LT(f.element, fp.weight_elems);
    const std::size_t ch = f.element / fp.steps;
    EXPECT_EQ(f.pe_col, ch % cfg.cols);
    const auto af = fault::lower(f, {0, 2}, *model);
    ASSERT_TRUE(af.faults.weight.has_value());
    EXPECT_EQ(af.faults.weight->weight_index, f.element);
    EXPECT_FALSE(af.faults.mac.has_value());
    EXPECT_FALSE(af.faults.column.has_value());
  }
}

// ---------------------------------------------------------------------------
// The column-propagation footprint law, at layer level. Equivalence oracle:
// a ColumnFault must equal applying an accumulator MacFault (same step, same
// op) to every footprint element independently, and must leave every
// non-footprint element bit-identical to the golden output.

template <typename T>
void check_column_law(const dnn::Network<T>& layer, const Tensor<T>& in,
                      std::size_t cols, std::size_t col, std::size_t first_out,
                      std::size_t step, const fault::FaultOp& op) {
  const Tensor<T> golden = dnn::scalar_ref::forward(layer, in);
  const dnn::PlanStep<T>& st = layer.plan().steps()[0];
  const auto& os = golden.shape();
  // Conv outputs map channel-plane-wise onto columns; FC outputs (flat
  // vec(n) shape, one element per output neuron) map element-wise.
  const std::size_t plane = os.c > 1 ? os.h * os.w : 1;

  dnn::LayerFaults faults;
  dnn::ColumnFault cf;
  cf.col = col;
  cf.cols = cols;
  cf.first_out = first_out;
  cf.step = step;
  cf.op = op;
  faults.column = cf;
  Tensor<T> faulty = golden;
  dnn::InjectionRecord rec;
  dnn::apply_faults(st, in, faulty, faults, &rec,
                    dnn::kernels::scalar_kernels<T>());
  EXPECT_TRUE(rec.applied);

  using Tr = numeric::numeric_traits<T>;
  for (std::size_t e = 0; e < golden.size(); ++e) {
    const bool in_footprint = e >= first_out && (e / plane) % cols == col;
    if (!in_footprint) {
      EXPECT_EQ(Tr::to_bits(faulty[e]), Tr::to_bits(golden[e]))
          << "element " << e << " outside the column footprint changed";
      continue;
    }
    // Oracle: a lone accumulator-latch fault on exactly this element.
    dnn::LayerFaults single;
    dnn::MacFault mf;
    mf.out_index = e;
    mf.step = step;
    mf.site = dnn::MacSite::kAccumulator;
    mf.op = op;
    single.mac = mf;
    Tensor<T> expect = golden;
    dnn::apply_faults(st, in, expect, single, nullptr,
                      dnn::kernels::scalar_kernels<T>());
    EXPECT_EQ(Tr::to_bits(faulty[e]), Tr::to_bits(expect[e]))
        << "element " << e << " differs from the per-element oracle";
  }
}

TEST(ColumnPropagationLaw, ConvFootprintIsExactlyTheDownstreamColumn) {
  auto conv = dnn::scalar_ref::one_layer<float>(
      dnn::SpecBuilder("t", chw(2, 5, 5), 0).conv(6, 3, 1, 1));
  Rng rng(41);
  conv.update_params([&](auto p) {
    for (auto& w : p[0].weights) w = static_cast<float>(rng.normal() * 0.3);
    for (auto& b : p[0].biases) b = static_cast<float>(rng.normal() * 0.1);
  });
  Tensor<float> in(chw(2, 5, 5));
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.normal());

  // plane = 5*5 = 25, 6 channels over 4 columns: channels {1, 5} share
  // column 1. Strike mid-plane so the footprint is a strict subset of both.
  check_column_law(conv, in, 4, 1, 30, 7, fault::FaultOp::flip(30));
  // set1 on two bits, column 2, from the very first element.
  check_column_law(conv, in, 4, 2, 0, 0, fault::FaultOp::stuck1(20, 2));
  // Degenerate 1-wide array: every channel flows through column 0.
  check_column_law(conv, in, 1, 0, 60, 3, fault::FaultOp::flip(22));
}

TEST(ColumnPropagationLaw, FcFootprintIsExactlyTheDownstreamColumn) {
  using Tr = numeric::numeric_traits<numeric::Half>;
  auto fc = dnn::scalar_ref::one_layer<numeric::Half>(
      dnn::SpecBuilder("t", tensor::vec(12), 0).fc(9));
  Rng rng(43);
  fc.update_params([&](auto p) {
    for (auto& w : p[0].weights) w = Tr::from_double(rng.normal() * 0.2);
    for (auto& b : p[0].biases) b = Tr::from_double(rng.normal() * 0.1);
  });
  Tensor<numeric::Half> in(tensor::vec(12));
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = Tr::from_double(rng.normal());

  // FC outputs are 1x1 planes: output o maps onto column o % cols.
  check_column_law(fc, in, 4, 1, 2, 5, fault::FaultOp::flip(14));
  check_column_law(fc, in, 3, 0, 0, 0, fault::FaultOp::stuck1(13));
}

// ---------------------------------------------------------------------------
// End-to-end: a sampled psum strike, lowered and applied through lower(),
// corrupts only column-footprint elements of the target layer's output.

TEST(ColumnPropagationLaw, LoweredPsumStrikeHonorsTheLawThroughTheNetwork) {
  const auto spec = dnn::SpecBuilder("n", chw(2, 8, 8), 5)
                        .conv(6, 3, 1, 1).relu().fc(5).softmax().build();
  const auto cfg = systolic(4, 4);
  const auto model = accel::make_accelerator(cfg);
  const fault::Sampler sampler(spec, numeric::DType::kFloat, *model);
  Rng rng(97);
  for (int i = 0; i < 200; ++i) {
    const auto f = sampler.sample(SiteClass::kPsumReg, rng);
    const auto af = fault::lower(f, {0, 2}, *model);
    ASSERT_TRUE(af.faults.column.has_value());
    const auto& c = *af.faults.column;
    EXPECT_EQ(c.cols, cfg.cols);
    EXPECT_EQ(c.first_out, f.element);
    EXPECT_EQ(c.step, f.step);
    EXPECT_EQ(c.col, f.pe_col);
    EXPECT_EQ(c.op, f.effective_op());
  }
}

// ---------------------------------------------------------------------------
// describe() format lock (geometry + op rendering). The exact spelling is
// part of the quarantine-report/log contract.

TEST(Describe, SystolicFormatIsLocked) {
  fault::FaultDescriptor f;
  f.geom = AcceleratorKind::kSystolic;
  f.cls = SiteClass::kPsumReg;
  f.pe_row = 6;
  f.pe_col = 14;
  f.block = 1;
  f.element = 14503;
  f.step = 38;
  f.bit = 0;
  f.op = fault::FaultOp::stuck1(0, 2);
  EXPECT_EQ(f.describe(),
            "systolic pe(6,14) psum-reg set1 mask=0x0003 block 1 elem 14503 "
            "step 38");

  f.cls = SiteClass::kDatapathLatch;
  f.latch = accel::DatapathLatch::kOperandWeight;
  f.op = fault::FaultOp::flip(7);
  f.bit = 7;
  EXPECT_EQ(f.describe(),
            "systolic pe(6,14) datapath/operand-weight toggle mask=0x0080 "
            "block 1 elem 14503 step 38");

  f.cls = SiteClass::kFilterSram;
  EXPECT_EQ(f.describe(),
            "systolic pe(6,14) filter-sram toggle mask=0x0080 block 1 "
            "elem 14503");
}

TEST(Describe, EyerissLegacySingleBitFormatIsUnchanged) {
  // The seed's format, byte for byte: geometry and op render nothing extra
  // for the default (Eyeriss + single-bit toggle) axes.
  fault::FaultDescriptor f;
  f.cls = SiteClass::kPsumReg;
  f.block = 3;
  f.element = 91;
  f.step = 12;
  f.bit = 9;
  f.op = fault::FaultOp::flip(9);
  EXPECT_EQ(f.describe(), "psum-reg block 3 elem 91 step 12 bit 9");
  // A richer op appends its mask description.
  f.op = fault::FaultOp::stuck0(9, 2);
  EXPECT_EQ(f.describe(),
            "psum-reg block 3 elem 91 step 12 bit 9 set0 mask=0x0600");
}

}  // namespace
}  // namespace dnnfi
