// Cross-module property tests: algebraic invariants of the numeric types,
// monotonicity of quantization, fault-descriptor self-description, and
// statistical invariants of the sampler — parameterized sweeps in the
// TEST_P style.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>

#include "dnnfi/common/exact_sum.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/common/serial.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/spec.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"
#include "dnnfi/fault/accumulator.h"
#include "dnnfi/fault/descriptor.h"
#include "dnnfi/fault/fault_op.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/sampler.h"
#include "dnnfi/mitigate/slh.h"
#include "dnnfi/numeric/dtype.h"
#include "kernel_mode_guard.h"

namespace dnnfi {
namespace {

using numeric::DType;
using numeric::Half;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Half algebraic properties over a pseudo-random sample of finite values.

class HalfAlgebra : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Half random_half(Rng& rng) const {
    // Uniform over finite bit patterns.
    for (;;) {
      const auto bits = static_cast<std::uint16_t>(rng.below(0x10000));
      const Half h = Half::from_bits(bits);
      if (!h.is_nan() && !h.is_inf()) return h;
    }
  }
};

TEST_P(HalfAlgebra, AdditionCommutes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Half a = random_half(rng), b = random_half(rng);
    EXPECT_EQ((a + b).bits(), (b + a).bits());
  }
}

TEST_P(HalfAlgebra, MultiplicationCommutes) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int i = 0; i < 200; ++i) {
    const Half a = random_half(rng), b = random_half(rng);
    EXPECT_EQ((a * b).bits(), (b * a).bits());
  }
}

TEST_P(HalfAlgebra, ZeroAndOneAreIdentities) {
  Rng rng(GetParam() ^ 0x1234);
  for (int i = 0; i < 200; ++i) {
    const Half a = random_half(rng);
    EXPECT_EQ(static_cast<float>(a + Half(0.0F)), static_cast<float>(a));
    EXPECT_EQ((a * Half(1.0F)).bits(), a.bits());
  }
}

TEST_P(HalfAlgebra, NegationIsSignBitFlip) {
  Rng rng(GetParam() ^ 0x77);
  for (int i = 0; i < 200; ++i) {
    const Half a = random_half(rng);
    EXPECT_EQ((-a).bits(), a.bits() ^ 0x8000U);
  }
}

TEST_P(HalfAlgebra, OrderingMatchesFloatOrdering) {
  Rng rng(GetParam() ^ 0xFEFE);
  for (int i = 0; i < 200; ++i) {
    const Half a = random_half(rng), b = random_half(rng);
    EXPECT_EQ(a < b, static_cast<float>(a) < static_cast<float>(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HalfAlgebra,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Fixed-point properties, swept over the three paper formats.

template <typename F>
class FixedAlgebra : public ::testing::Test {};
using FixedFormats =
    ::testing::Types<numeric::Fx16r10, numeric::Fx32r10, numeric::Fx32r26>;
TYPED_TEST_SUITE(FixedAlgebra, FixedFormats);

TYPED_TEST(FixedAlgebra, QuantizationIsMonotone) {
  using F = TypeParam;
  Rng rng(99);
  const double range = static_cast<double>(F::max_value()) * 1.5;
  for (int i = 0; i < 500; ++i) {
    const double a = (rng.uniform() - 0.5) * 2 * range;
    const double b = (rng.uniform() - 0.5) * 2 * range;
    if (a <= b) {
      EXPECT_LE(F(a).raw(), F(b).raw()) << "a=" << a << " b=" << b;
    } else {
      EXPECT_GE(F(a).raw(), F(b).raw());
    }
  }
}

TYPED_TEST(FixedAlgebra, AdditionCommutesAndNeverWraps) {
  using F = TypeParam;
  Rng rng(101);
  const double range = static_cast<double>(F::max_value());
  for (int i = 0; i < 500; ++i) {
    const F a((rng.uniform() - 0.5) * 2 * range);
    const F b((rng.uniform() - 0.5) * 2 * range);
    EXPECT_EQ((a + b).raw(), (b + a).raw());
    // Saturation: result magnitude is bounded, never sign-flipped garbage.
    if (a.raw() > 0 && b.raw() > 0) {
      EXPECT_GE((a + b).raw(), a.raw());
    }
    if (a.raw() < 0 && b.raw() < 0) {
      EXPECT_LE((a + b).raw(), a.raw());
    }
  }
}

TYPED_TEST(FixedAlgebra, MultiplicationWithinUlpOfRealProduct) {
  using F = TypeParam;
  Rng rng(103);
  const double lsb = 1.0 / F::kScale;
  for (int i = 0; i < 500; ++i) {
    const double a = (rng.uniform() - 0.5) * 4.0;
    const double b = (rng.uniform() - 0.5) * 4.0;
    const double got = static_cast<double>(F(a) * F(b));
    // Inputs quantize to within lsb/2 each; |a|,|b| <= 2 bounds the error.
    EXPECT_NEAR(got, a * b, 2.5 * lsb + 1e-12);
  }
}

TYPED_TEST(FixedAlgebra, FlipBitRoundTripsThroughBits) {
  using F = TypeParam;
  Rng rng(107);
  for (int i = 0; i < 200; ++i) {
    const F v((rng.uniform() - 0.5) * 10.0);
    const int bit = static_cast<int>(rng.below(static_cast<std::uint64_t>(F::kWidth)));
    EXPECT_EQ(numeric::flip_bit(numeric::flip_bit(v, bit), bit).raw(), v.raw());
  }
}

// ---------------------------------------------------------------------------
// Conversion-chain property across all six types: double -> T -> double is a
// projection (converting twice equals converting once).

class DTypeProjection : public ::testing::TestWithParam<DType> {};

TEST_P(DTypeProjection, RoundTripIsIdempotent) {
  const DType dt = GetParam();
  numeric::dispatch_dtype(dt, [&]<typename T>() {
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
      const double v = rng.normal() * 20.0;
      const double once =
          numeric::numeric_traits<T>::to_double(numeric::numeric_traits<T>::from_double(v));
      const double twice = numeric::numeric_traits<T>::to_double(
          numeric::numeric_traits<T>::from_double(once));
      EXPECT_EQ(once, twice) << numeric::dtype_name(dt) << " v=" << v;
    }
  });
}

TEST_P(DTypeProjection, FlipBitAlwaysChangesStoredBits) {
  const DType dt = GetParam();
  numeric::dispatch_dtype(dt, [&]<typename T>() {
    Rng rng(13);
    using Tr = numeric::numeric_traits<T>;
    for (int i = 0; i < 300; ++i) {
      const T v = Tr::from_double(rng.normal());
      const int bit = static_cast<int>(rng.below(static_cast<std::uint64_t>(Tr::width)));
      EXPECT_NE(Tr::to_bits(numeric::flip_bit(v, bit)), Tr::to_bits(v));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DTypeProjection,
                         ::testing::ValuesIn(numeric::kAllDTypes),
                         [](const auto& param_info) {
                           return std::string(
                               numeric::dtype_name(param_info.param));
                         });

// ---------------------------------------------------------------------------
// Descriptor description strings.

TEST(Descriptor, DescribeNamesSiteAndScope) {
  fault::FaultDescriptor f;
  f.cls = fault::SiteClass::kImgReg;
  f.block = 3;
  f.element = 17;
  f.out_channel = 2;
  f.out_row = 5;
  f.bit = 9;
  const std::string d = f.describe();
  EXPECT_NE(d.find("img-reg"), std::string::npos);
  EXPECT_NE(d.find("block 3"), std::string::npos);
  EXPECT_NE(d.find("co=2"), std::string::npos);
  EXPECT_NE(d.find("bit 9"), std::string::npos);

  f.cls = fault::SiteClass::kDatapathLatch;
  f.latch = accel::DatapathLatch::kProduct;
  EXPECT_NE(f.describe().find("datapath/product"), std::string::npos);
}

TEST(Descriptor, BufferOfMapsAllBufferClasses) {
  EXPECT_EQ(fault::buffer_of(fault::SiteClass::kGlobalBuffer),
            accel::BufferKind::kGlobalBuffer);
  EXPECT_EQ(fault::buffer_of(fault::SiteClass::kImgReg),
            accel::BufferKind::kImgReg);
  EXPECT_THROW(fault::buffer_of(fault::SiteClass::kDatapathLatch),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// FaultOp algebra (DESIGN.md §11): the mask model bits' = ((bits & ~set0) |
// set1) ^ toggle makes toggle an involution, set0/set1 idempotent, and the
// all-zero op the identity — and a pure toggle burst must be bit-for-bit the
// legacy numeric::flip_burst the paper's campaigns were built on.

/// Applies `op` to a raw 64-bit word via the double bit-cast traits (pure
/// bit operations end to end, so arbitrary patterns survive untouched).
std::uint64_t apply64(std::uint64_t v, const fault::FaultOp& op) {
  using Tr = numeric::numeric_traits<double>;
  return Tr::to_bits(fault::apply_op(Tr::from_bits(v), op));
}

fault::FaultOp random_op(Rng& rng) {
  fault::FaultOp op;
  // Populate one, two, or three masks; keep them within 64 bits.
  const auto mask = [&rng] { return rng() & rng(); };  // sparse-ish
  switch (rng.below(4)) {
    case 0: op.toggle = mask(); break;
    case 1: op.set0 = mask(); break;
    case 2: op.set1 = mask(); break;
    default: op.set0 = mask(); op.set1 = mask(); op.toggle = mask(); break;
  }
  return op;
}

TEST(FaultOpAlgebra, ToggleIsAnInvolutionOnEveryDType) {
  for (const DType dt : numeric::kAllDTypes) {
    numeric::dispatch_dtype(dt, [&]<typename T>() {
      Rng rng(0xF0 ^ static_cast<std::uint64_t>(dt));
      for (int i = 0; i < 300; ++i) {
        const T v = numeric::numeric_traits<T>::from_double(rng.normal() * 8);
        fault::FaultOp op;
        op.toggle = rng();
        const T twice = fault::apply_op(fault::apply_op(v, op), op);
        EXPECT_EQ(numeric::numeric_traits<T>::to_bits(twice),
                  numeric::numeric_traits<T>::to_bits(v))
            << numeric::dtype_name(dt);
      }
    });
  }
}

TEST(FaultOpAlgebra, EveryOpIsIdempotentUpToItsToggleParity) {
  // set0/set1 alone are idempotent; a general op applied twice differs from
  // once only by the second toggle, so stripping toggle makes any op
  // idempotent. Checked on raw uint64 words (the mask algebra itself).
  Rng rng(0x1D3);
  for (int i = 0; i < 500; ++i) {
    fault::FaultOp op = random_op(rng);
    op.toggle = 0;
    const std::uint64_t v = rng();
    const std::uint64_t once = apply64(v, op);
    EXPECT_EQ(apply64(once, op), once);
  }
}

TEST(FaultOpAlgebra, DefaultOpIsTheIdentity) {
  const fault::FaultOp id;
  EXPECT_TRUE(id.is_identity());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng();
    EXPECT_EQ(apply64(v, id), v);
    const Half h = Half::from_bits(static_cast<std::uint16_t>(rng.below(0x10000)));
    EXPECT_EQ(fault::apply_op(h, id).bits(), h.bits());
  }
}

TEST(FaultOpAlgebra, FlipBurstOpMatchesLegacyFlipBurst) {
  for (const DType dt : numeric::kAllDTypes) {
    numeric::dispatch_dtype(dt, [&]<typename T>() {
      using Tr = numeric::numeric_traits<T>;
      Rng rng(0xB57 ^ static_cast<std::uint64_t>(dt));
      for (int i = 0; i < 300; ++i) {
        const T v = Tr::from_double(rng.normal() * 4);
        const int bit = static_cast<int>(rng.below(Tr::width));
        const int len = 1 + static_cast<int>(rng.below(4));
        EXPECT_EQ(Tr::to_bits(fault::apply_op(v, fault::FaultOp::flip(bit, len))),
                  Tr::to_bits(numeric::flip_burst(v, bit, len)))
            << numeric::dtype_name(dt) << " bit=" << bit << " len=" << len;
      }
    });
  }
}

TEST(FaultOpAlgebra, SetOpsForceAffectedBitsRegardlessOfInput) {
  Rng rng(0x5E7);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t m = rng() | 1;
    const std::uint64_t v = rng();
    EXPECT_EQ(apply64(v, fault::FaultOp{m, 0, 0}) & m, 0U);
    EXPECT_EQ(apply64(v, fault::FaultOp{0, m, 0}) & m, m);
  }
}

TEST(FaultOpSpecRoundTrip, CanonicalStringsParseBack) {
  for (const char* s :
       {"toggle", "toggle:3", "set0", "set1", "set1:4", "set0:0x0005"}) {
    const auto spec = fault::FaultOpSpec::parse(s);
    ASSERT_TRUE(spec.has_value()) << s;
    EXPECT_EQ(spec->to_string(), s);
  }
  for (const char* s : {"", "mixed", "toggle:", "toggle:0", "set1:0x0",
                        "set0:abc", "flip"}) {
    EXPECT_FALSE(fault::FaultOpSpec::parse(s).has_value()) << s;
  }
  // Materializing at a bit shifts the relative footprint to that anchor.
  const auto burst = fault::FaultOpSpec::parse("toggle:3");
  EXPECT_EQ(burst->at(5), fault::FaultOp::flip(5, 3));
  const auto pat = fault::FaultOpSpec::parse("set1:0x5");
  EXPECT_EQ(pat->at(2), fault::FaultOp::pattern(fault::FaultOpKind::kSet1,
                                                0x5ULL << 2));
}

// Mutation sweep over the two CLI spec parsers (--accel, --fault-op): every
// single-byte change (all 255 XOR masks at every offset) and every
// truncation of a valid spelling either fails cleanly or parses to a value
// whose canonical spelling parses back to the same value. Nothing throws.
TEST(CliSpecParsers, SurviveEveryByteFlipAndTruncation) {
  const auto mutants = [](const std::string& valid) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (int mask = 1; mask < 256; ++mask) {
        std::string m = valid;
        m[i] = static_cast<char>(m[i] ^ mask);
        out.push_back(std::move(m));
      }
    }
    for (std::size_t cut = 0; cut < valid.size(); ++cut)
      out.push_back(valid.substr(0, cut));
    return out;
  };
  for (const char* valid : {"systolic:16x16", "eyeriss"}) {
    for (const std::string& m : mutants(valid)) {
      SCOPED_TRACE(m);
      std::optional<accel::AcceleratorConfig> got;
      ASSERT_NO_THROW(got = accel::parse_accelerator(m));
      if (!got) continue;
      EXPECT_EQ(accel::parse_accelerator(got->to_string()), got);
    }
  }
  for (const char* valid : {"set1:0x0003", "toggle:3"}) {
    for (const std::string& m : mutants(valid)) {
      SCOPED_TRACE(m);
      std::optional<fault::FaultOpSpec> got;
      ASSERT_NO_THROW(got = fault::FaultOpSpec::parse(m));
      if (!got) continue;
      EXPECT_EQ(fault::FaultOpSpec::parse(got->to_string()), got);
    }
  }
}

// Op application must be bit-identical whichever kernel set executes the
// faulty layer: the injection hooks corrupt logical tensor words, never the
// SIMD-packed copies, so scalar and avx2 runs see the same upset.
TEST(FaultOpKernels, FaultyRunsBitIdenticalAcrossScalarAndAvx2) {
  if (dnn::kernels::kernel_set<float>("avx2") == nullptr)
    GTEST_SKIP() << "avx2 kernels not available on this build/CPU";
  const dnn::kernels::ModeGuard guard;

  const auto spec = dnn::zoo::network_spec(dnn::zoo::NetworkId::kConvNet);
  dnn::WeightsBlob blob;
  {
    dnn::Network<float> seed(spec);
    dnn::init_weights(seed, 77);
    blob = dnn::extract_weights(seed);
  }
  Tensor<Half> img(spec.input);
  {
    Rng rng(123);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = numeric::numeric_traits<Half>::from_double(rng.normal() * 0.5);
  }

  // Faults sampled on the systolic geometry with non-toggle ops exercise
  // every lowering path (column propagation included) under both kernel
  // sets with identical descriptors.
  const auto model = accel::make_accelerator(
      *accel::parse_accelerator("systolic:8x8"));
  const fault::Sampler sampler(spec, DType::kFloat16, *model);
  std::vector<fault::FaultDescriptor> faults;
  {
    Rng rng(2017);
    fault::SampleConstraint sc;
    int i = 0;
    for (const auto cls : model->site_classes()) {
      for (const auto kind :
           {fault::FaultOpKind::kToggle, fault::FaultOpKind::kSet0,
            fault::FaultOpKind::kSet1}) {
        sc.op.kind = kind;
        sc.op.burst = 1 + (i++ % 3);
        faults.push_back(sampler.sample(cls, rng, sc));
      }
    }
  }

  auto run_mode = [&](const char* mode) {
    EXPECT_TRUE(dnn::kernels::set_active_mode(mode));
    dnn::Network<Half> net(spec);  // plan captures the active kernel set
    dnn::load_weights(net, blob);
    const dnn::ActivationCache<Half> golden(net.plan(), img);
    const dnn::Executor<Half> exec(net.plan());
    dnn::Workspace<Half> ws(net.plan());
    std::vector<Tensor<Half>> outs;
    for (const auto& f : faults) {
      outs.emplace_back();
      outs.back().assign(fault::inject<Half>(
          exec, ws, net.mac_layers(), golden, f, /*early_exit=*/false,
          nullptr, nullptr, nullptr, *model));
    }
    return outs;
  };
  const auto scalar = run_mode("scalar");
  const auto avx2 = run_mode("avx2");
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_TRUE(tensor::bitwise_equal(avx2[i], scalar[i]))
        << faults[i].describe();
}

// ---------------------------------------------------------------------------
// Rng contract: `below(bound)` stays strictly inside the bound and is
// (roughly) uniform, and `derive_stream` is injective in the stream index.
// These two are the foundation of the sharded-campaign determinism contract
// (DESIGN.md §7): trial t's entire randomness is derive_stream(seed, t).

class RngBelow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelow, NeverReachesBound) {
  Rng rng(GetParam());
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{64}, std::uint64_t{1000},
        std::uint64_t{1} << 33, std::uint64_t{0} - 2}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST_P(RngBelow, RoughlyUniformOver64Buckets) {
  Rng rng(GetParam() ^ 0xB0C4);
  constexpr int kBuckets = 64;
  constexpr int kDraws = 64 * 1000;
  std::array<int, kBuckets> hist{};
  for (int i = 0; i < kDraws; ++i) ++hist[rng.below(kBuckets)];
  // Pearson chi-square with 63 dof: mean 63, stddev ~11.2. 150 is ~7.8
  // sigma above the mean — a deterministic seed either passes or the
  // generator is genuinely broken.
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (const int h : hist) {
    const double d = h - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 150.0) << "chi2=" << chi2;
  // And no bucket is starved or flooded outright.
  for (std::size_t b = 0; b < hist.size(); ++b) {
    EXPECT_GT(hist[b], expected * 0.8) << "bucket " << b;
    EXPECT_LT(hist[b], expected * 1.2) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBelow, ::testing::Values(0, 1, 2017, 31013));

TEST(DeriveStream, IdenticalInputsYieldIdenticalStreams) {
  for (const std::uint64_t seed : {0ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (const std::uint64_t i : {0ULL, 1ULL, 1000000ULL}) {
      Rng a = derive_stream(seed, i);
      Rng b = derive_stream(seed, i);
      for (int k = 0; k < 64; ++k) ASSERT_EQ(a(), b());
    }
  }
}

TEST(DeriveStream, DistinctIndicesYieldDistinctStreams) {
  // Any two of the first 256 trial streams must diverge within the first
  // few draws; a campaign where two trials shared randomness would silently
  // double-count one fault site.
  constexpr std::uint64_t kSeed = 2017;
  constexpr int kStreams = 256;
  std::set<std::array<std::uint64_t, 4>> prefixes;
  for (int i = 0; i < kStreams; ++i) {
    Rng r = derive_stream(kSeed, static_cast<std::uint64_t>(i));
    prefixes.insert({r(), r(), r(), r()});
  }
  EXPECT_EQ(prefixes.size(), static_cast<std::size_t>(kStreams));
}

TEST(DeriveStream, DifferentSeedsYieldDistinctStreams) {
  Rng a = derive_stream(1, 0);
  Rng b = derive_stream(2, 0);
  bool differs = false;
  for (int k = 0; k < 4; ++k) differs |= (a() != b());
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Sampler coverage: over 10k draws, every layer a SiteClass can legally
// strike (pick_layer weight > 0) is hit at least once, and no illegal layer
// is ever hit. Legality mirrors the sampler's weighting rule: datapath
// latches weight by MACs; buffer classes by MACs x occupied words.

TEST(SamplerCoverage, EveryLegalLayerHitWithinTenThousandDraws) {
  const auto spec = dnn::SpecBuilder("cov", tensor::chw(2, 8, 8), 4)
                        .conv(3, 3, 1, 1).relu()
                        .conv(4, 3, 1, 1).relu().maxpool(2, 2)
                        .fc(4).softmax()
                        .build();
  const fault::Sampler sampler(spec, numeric::DType::kFloat16);
  const auto& fp = sampler.footprints();
  for (const auto cls : fault::kAllSiteClasses) {
    std::set<std::size_t> legal;
    for (std::size_t l = 0; l < fp.size(); ++l) {
      double w = static_cast<double>(fp[l].macs);
      if (cls != fault::SiteClass::kDatapathLatch)
        w *= static_cast<double>(accel::occupied_elems(fp[l], fault::buffer_of(cls)));
      if (w > 0) legal.insert(l);
    }
    ASSERT_FALSE(legal.empty()) << fault::site_class_name(cls);

    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(cls));
    std::set<std::size_t> hit;
    for (int i = 0; i < 10000; ++i)
      hit.insert(sampler.sample(cls, rng).mac_ordinal);
    EXPECT_EQ(hit, legal) << fault::site_class_name(cls);
  }
}

// ---------------------------------------------------------------------------
// ExactSum: the partition-independence property the sharded merge relies on.
// Any grouping and ordering of the same multiset of doubles must yield
// bit-identical value() and serialized bytes.

namespace {
std::vector<std::uint8_t> exact_sum_bytes(const ExactSum& s) {
  ByteWriter w;
  s.serialize(w);
  return w.take();
}
}  // namespace

TEST(ExactSumProperty, PartitionAndOrderIndependent) {
  Rng rng(0xE5);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    // Wild dynamic range: magnitudes from 2^-300 to 2^+300, both signs.
    xs.push_back(std::ldexp(rng.normal(), static_cast<int>(rng.between(-300, 300))));
  }
  ExactSum forward;
  for (const double x : xs) forward.add(x);

  ExactSum reverse;
  for (std::size_t i = xs.size(); i-- > 0;) reverse.add(xs[i]);

  // Random 8-way partition merged in shuffled order.
  std::array<ExactSum, 8> parts;
  for (const double x : xs) parts[rng.below(parts.size())].add(x);
  std::array<std::size_t, 8> order{0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = order.size(); i-- > 1;)
    std::swap(order[i], order[rng.below(i + 1)]);
  ExactSum merged;
  for (const std::size_t i : order) merged.merge(parts[i]);

  const auto want = exact_sum_bytes(forward);
  EXPECT_EQ(exact_sum_bytes(reverse), want);
  EXPECT_EQ(exact_sum_bytes(merged), want);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reverse.value()),
            std::bit_cast<std::uint64_t>(forward.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.value()),
            std::bit_cast<std::uint64_t>(forward.value()));
}

TEST(ExactSumProperty, ExactWhenMagnitudesAreRepresentable) {
  // Each sign's magnitude accumulates exactly; value() subtracts the two
  // rounded magnitudes, so it is exact whenever both are representable.
  ExactSum s;
  s.add(3.5);
  s.add(-1.25);
  s.add(0x1.0p-40);
  s.add(-0x1.0p-40);
  EXPECT_EQ(s.value(), 2.25);
}

TEST(ExactSumProperty, ZeroMeansNothingAdded) {
  ExactSum s;
  EXPECT_TRUE(s.zero());
  EXPECT_EQ(s.value(), 0.0);
  s.add(0.0);  // zeros do not perturb the state
  EXPECT_TRUE(s.zero());
  s.add(1.0);
  EXPECT_FALSE(s.zero());
}

// ---------------------------------------------------------------------------
// Accumulator merge identity: a zero-trial stratum is a no-op operand.

TEST(OutcomeAccumulatorProperty, MergingZeroTrialStratumIsIdentity) {
  fault::TrialRecord t;
  t.outcome.sdc1 = true;
  t.output_corruption = 0.25;
  t.block_distance = {0.5, 3.0};
  fault::OutcomeAccumulator acc(2);
  acc.add(t);
  t.outcome.sdc1 = false;
  t.block_distance = {0.0, 1.0};
  acc.add(t);

  const auto before = acc.bytes();
  const fault::Estimate ci_before = acc.sdc1();

  // A pre-sized per-stratum accumulator that saw zero trials — exactly what
  // the stratified campaign holds for a converged-at-pilot or empty stratum.
  // Its block-slot count is deliberately *larger* than the target's; merging
  // it must not grow the target's block vector or otherwise perturb its
  // serialized state (ExactSums included) or its CI widths.
  const fault::OutcomeAccumulator empty(8);
  acc.merge(empty);

  EXPECT_EQ(acc.bytes(), before);
  EXPECT_EQ(acc.sdc1().ci95, ci_before.ci95);
  EXPECT_EQ(acc.trials(), 2U);
  EXPECT_EQ(acc.num_blocks(), 2U);

  // Merging real state *into* a zero-trial accumulator still works and
  // reproduces the source bytes (pre-sizing on the target side is the
  // intended per-stratum construction pattern, not a perturbation).
  fault::OutcomeAccumulator sink;
  sink.merge(acc);
  EXPECT_EQ(sink.bytes(), acc.bytes());
}

// ---------------------------------------------------------------------------
// Beta fit recovers the generating parameter on exact model curves.

TEST(SlhBeta, RecoversKnownBeta) {
  for (const double beta : {0.5, 2.0, 7.0, 20.0}) {
    std::vector<mitigate::CoveragePoint> curve;
    for (int k = 0; k <= 50; ++k) {
      const double x = k / 50.0;
      curve.push_back(
          {x, (1.0 - std::exp(-beta * x)) / (1.0 - std::exp(-beta))});
    }
    EXPECT_NEAR(mitigate::fit_beta(curve), beta, beta * 0.05 + 0.05);
  }
}

}  // namespace
}  // namespace dnnfi
