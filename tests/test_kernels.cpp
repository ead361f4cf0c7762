// Kernel registry property tests: every registered SIMD kernel set is
// checked against the scalar reference across all six datapath types, odd
// shapes (output channels not divisible by the lane width, including the
// zero-full-blocks case), non-finite inputs (NaN / ±Inf / -0 propagation,
// canonical-NaN rule for FLOAT16, fault-style payload NaNs), and 100-run
// buffer reuse — asserting tensor::bitwise_equal for every set, MAC and
// post-MAC ops (lrn / maxpool / avgpool / softmax) alike, with
// restructure-lock tests pinning the scalar reference to the formulas the
// layers used to inline. The single chains (chain / chain_pair) are held
// to the plain tap loop. The fixed-point weight-sum bound (fixed_act_limit)
// is checked against a modelled reference chain, and the conv and FC scans
// that apply it against over-limit activations on their window's edges.
// Plus the packed-layout formula itself, native FP16 arithmetic against the
// F16C round trip (fp16_arith.h), a check that every kernel returns with
// the upper vector state clear, and executor-level integration checks that
// set_active_mode("scalar") and each SIMD mode produce byte-identical
// network outputs.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"
#include "dnnfi/numeric/cpu.h"
#include "dnnfi/numeric/traits.h"
#include "dnnfi/tensor/tensor.h"
#include "fp16_arith.h"
#include "kernel_mode_guard.h"

namespace dnnfi::dnn::kernels {
namespace {

using numeric::numeric_traits;
using tensor::Shape;
using tensor::Tensor;

/// Non-finite seasoning for the floating datapath types. kNaN and kInf are
/// deliberately separate variants: when two NaNs with DIFFERENT bit patterns
/// meet in one addition, x86 returns whichever the compiler put first, and
/// GCC orders (and even auto-vectorizes) the scalar reference's accumulation
/// however it likes — so that one case is outside the bit-identity contract
/// (see kernels.h). Within a variant every NaN that can arise shares a
/// single bit pattern (the planted canonical NaN, or the FFC00000-style
/// "indefinite" from Inf*0 / Inf-Inf), which x86 propagates verbatim
/// regardless of operand order, keeping the comparison exact.
///
/// kPayloadNaN plants ONE fault-style NaN, as a flipped exponent bit would
/// leave it: random position and non-zero payload, signalling or quiet by
/// salt bit 1, positive or negative by salt bit 2 (so any 8 consecutive
/// salts cover all four forms twice). A canonical NaN propagates as
/// itself, so the kNaN season cannot show whether a Half kernel
/// canonicalises at all, let alone once per chain as the avx512fp16 set
/// does; a payload NaN shows it. Seasoning the inputs OR the weights with
/// it, never both, keeps every chain at one NaN.
enum class Season { kFinite, kNaN, kInf, kPayloadNaN };

/// Deterministic awkward values in roughly [-3, 3]; floating types also get
/// the requested non-finite values planted (at fixed positions, except for
/// kPayloadNaN).
template <typename T>
std::vector<T> awkward(std::size_t n, std::uint64_t salt, Season season) {
  using Tr = numeric_traits<T>;
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Tr::from_double(
        0.0625 * static_cast<double>((i * 2654435761u + salt) % 97) - 3.0);
  if constexpr (Tr::is_floating) {
    if (n >= 8 && season == Season::kNaN) {
      v[n / 5] = Tr::from_double(std::numeric_limits<double>::quiet_NaN());
      v[n / 2] = Tr::from_double(std::numeric_limits<double>::quiet_NaN());
      v[2 * n / 3] = Tr::from_double(-0.0);
    } else if (n >= 8 && season == Season::kInf) {
      v[n / 5] = Tr::from_double(std::numeric_limits<double>::infinity());
      v[n / 2] = Tr::from_double(-std::numeric_limits<double>::infinity());
      v[2 * n / 3] = Tr::from_double(-0.0);
    } else if (n > 0 && season == Season::kPayloadNaN) {
      using B = typename Tr::bits_type;
      constexpr int kFrac = Tr::exponent_lo;  // fraction bits
      constexpr B kQuiet = B{1} << (kFrac - 1);
      Rng rng(salt);
      const B payload = static_cast<B>(1 + rng() % (kQuiet - 1));
      const B quiet = (salt >> 1) & 1 ? kQuiet : B{0};
      const B sign =
          (salt >> 2) & 1 ? static_cast<B>(B{1} << Tr::exponent_hi) : B{0};
      const B exponent = static_cast<B>(
          ((B{1} << (Tr::exponent_hi - kFrac)) - 1) << kFrac);
      v[rng() % n] = Tr::from_bits(
          static_cast<B>(sign | exponent | quiet | payload));
    }
  }
  return v;
}

template <typename T>
Tensor<T> run_conv(const KernelSet<T>& ks, const ConvGeom& g,
                   const std::vector<T>& in, const std::vector<T>& w,
                   const std::vector<T>& bias) {
  Tensor<T> out(Shape{1, g.out_c, g.out_h, g.out_w});
  std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks.pack_lanes));
  if (!packed.empty())
    pack_rows(w.data(), g.out_c, g.steps(), ks.pack_lanes, packed.data());
  ks.conv(g, g.full(), in.data(), w.data(),
          packed.empty() ? nullptr : packed.data(), bias.data(),
          out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_fc(const KernelSet<T>& ks, const FcGeom& g,
                 const std::vector<T>& in, const std::vector<T>& w,
                 const std::vector<T>& bias) {
  Tensor<T> out(Shape{1, g.out, 1, 1});
  std::vector<T> packed(packed_elems(g.out, g.in, ks.pack_lanes));
  if (!packed.empty())
    pack_rows(w.data(), g.out, g.in, ks.pack_lanes, packed.data());
  ks.fc(g, in.data(), w.data(), packed.empty() ? nullptr : packed.data(),
        bias.data(), out.data().data());
  return out;
}

/// The act_limits a conv / FC comparison runs under: 0 (unproven, the
/// saturating fixed-point body) and, for fixed point, the plan's
/// fixed_act_limit of the rows x cols weights `w` (the unsaturated body
/// wherever the inputs stay within it). Floating sets ignore act_limit.
template <typename T>
std::vector<std::int64_t> act_limits(const std::vector<T>& w,
                                     std::size_t rows, std::size_t cols) {
  if constexpr (numeric_traits<T>::is_floating)
    return {0};
  else
    return {0, fixed_act_limit(w.data(), rows, cols)};
}

template <typename T>
Tensor<T> run_lrn(const KernelSet<T>& ks, const LrnGeom& g,
                  const std::vector<T>& in) {
  Tensor<T> out(Shape{1, g.c, g.h, g.w});
  ks.lrn(g, g.full(), in.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_maxpool(const KernelSet<T>& ks, const PoolGeom& g,
                      const std::vector<T>& in) {
  Tensor<T> out(Shape{1, g.c, g.out_h, g.out_w});
  ks.maxpool(g, g.full(), in.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_avgpool(const KernelSet<T>& ks, std::size_t channels,
                      std::size_t plane, const std::vector<T>& in) {
  Tensor<T> out(Shape{1, channels, 1, 1});
  ks.avgpool(in.data(), out.data().data(), channels, plane);
  return out;
}

template <typename T>
Tensor<T> run_softmax(const KernelSet<T>& ks, std::size_t n,
                      const std::vector<T>& in) {
  Tensor<T> out(Shape{1, 1, 1, n});
  ks.softmax(in.data(), out.data().data(), n);
  return out;
}

// Odd geometries on purpose, at every lane width (16, 8, 4): out_c = 13
// leaves a 5-row tail at 8 lanes and a 1-row tail at 4; out_c = 7, 9 and 13
// yield ZERO full 16-lane blocks (7 also at 8 lanes: the packed pointer must
// never be dereferenced); 16 is all-blocks at every width; 21 is full blocks
// plus a tail at every width (1+5 at 16, 2+5 at 8, 5+1 at 4). The conv
// body runs its lane-blocks in groups of up to 3 (a trait's kGroup): with
// out_c = 21, 37 and 53 every width runs groups of 1, 2 and 3 blocks plus a
// tail (at 16 lanes 1, 2 and 3 blocks; at 8 lanes 2, 3+1 and 3+3; at 4
// lanes 3+2, 3+3+3 and 3+3+3+1). Each group runs 4 output pixels per pass
// and the last out_h*out_w % 4 one at a time: the 7x5 and 5x3 planes leave
// 3 such pixels, and their 4-pixel groups straddle output rows and the
// padded right border.
const ConvGeom kConvGeoms[] = {
    {3, 9, 7, 13, 5, 4, 3, 2, 1},   // strided, padded, tail rows
    {5, 6, 6, 7, 6, 6, 1, 1, 0},    // 1x1 kernel, zero full blocks at w=8
    {8, 8, 8, 16, 8, 8, 3, 1, 1},   // full blocks only (at 16, 8 and 4 lanes)
    {4, 5, 5, 9, 2, 2, 3, 2, 0},    // stride 2, no padding
    {2, 7, 7, 21, 4, 4, 3, 2, 1},   // blocks plus a tail at every width
    {3, 13, 9, 21, 7, 5, 3, 2, 1},  // pixel groups wrap rows; 3-pixel tail
    {3, 9, 5, 37, 5, 3, 3, 2, 1},   // a 2-block group and a tail at 16 lanes
    {2, 7, 5, 53, 7, 5, 3, 1, 1},   // a full 3-block group and a tail at 16
};
const FcGeom kFcGeoms[] = {{37, 19}, {64, 32}, {10, 3}};

// Post-MAC geometries, odd on purpose. LRN: a window (size 5) wider than the
// whole channel range; 1x1 spatial (the blocked AVX2 path needs >= 4
// positions, so this forces its scalar fallback); odd channel count with a
// position tail. MaxPool: a window covering the entire input (single 1x1
// output); strided odd-channel case; non-square input.
const LrnGeom kLrnGeoms[] = {
    {3, 5, 7, 5, 1e-4, 0.75, 2.0},
    {16, 1, 1, 5, 2e-5, 0.75, 1.0},
    {13, 6, 5, 3, 1e-3, 0.5, 1.0},
};
const PoolGeom kPoolGeoms[] = {
    {3, 5, 5, 1, 1, 5, 1},
    {5, 9, 9, 4, 4, 3, 2},
    {8, 6, 8, 3, 4, 2, 2},
    // AlexNet's k3/s2 pool with out_w = 10: one 8-lane block plus a
    // 2-column tail (two 4-lane blocks plus a tail for double).
    {5, 23, 21, 11, 10, 3, 2},
};
const std::size_t kAvgPools[][2] = {{3, 25}, {8, 1}, {13, 30}};
// 1030 exceeds the 1024-element exp stack buffer, forcing the recompute
// fallback in both the scalar reference and the SIMD sets.
const std::size_t kSoftmaxNs[] = {10, 100, 1030};

template <typename T>
class KernelProperty : public ::testing::Test {};

using DatapathTypes =
    ::testing::Types<double, float, numeric::Half, numeric::Fx32r26,
                     numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(KernelProperty, DatapathTypes);

TYPED_TEST(KernelProperty, ScalarReferenceAlwaysRegistered) {
  using T = TypeParam;
  const auto names = registered_names<T>();
  ASSERT_FALSE(names.empty());
  EXPECT_STREQ(names.front(), "scalar");
  const KernelSet<T>* s = kernel_set<T>("scalar");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->pack_lanes, 0u);
  EXPECT_EQ(kernel_set<T>("no-such-set"), nullptr);
  EXPECT_EQ(kernel_set<T>("avx2-relaxed"), nullptr);
  EXPECT_FALSE(set_active_mode("avx2-relaxed"));
}

TYPED_TEST(KernelProperty, SimdSetsBitIdenticalToScalarOnOddShapes) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      for (ConvGeom g : kConvGeoms) {
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, season);
        const auto w = awkward<T>(g.out_c * g.steps(), 23, season);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        for (const std::int64_t lim : act_limits(w, g.out_c, g.steps())) {
          g.act_limit = lim;
          EXPECT_TRUE(tensor::bitwise_equal(run_conv(*ks, g, in, w, bias),
                                            run_conv(ref, g, in, w, bias)))
              << name << " conv out_c=" << g.out_c
              << " season=" << static_cast<int>(season)
              << " act_limit=" << lim;
        }
      }
      for (FcGeom g : kFcGeoms) {
        const auto in = awkward<T>(g.in, 31, season);
        const auto w = awkward<T>(g.out * g.in, 41, season);
        const auto bias = awkward<T>(g.out, 7, Season::kFinite);
        for (const std::int64_t lim : act_limits(w, g.out, g.in)) {
          g.act_limit = lim;
          EXPECT_TRUE(tensor::bitwise_equal(run_fc(*ks, g, in, w, bias),
                                            run_fc(ref, g, in, w, bias)))
              << name << " fc out=" << g.out
              << " season=" << static_cast<int>(season)
              << " act_limit=" << lim;
        }
      }
    }
    {
      // relu never adds, so NaN (of any sign), ±Inf, and -0 can mix freely:
      // propagation is per-element and must match bit for bit.
      const std::size_t n = 33;
      auto in = awkward<T>(n, 3, Season::kNaN);
      if constexpr (numeric_traits<T>::is_floating) {
        in[1] = numeric_traits<T>::from_double(
            std::numeric_limits<double>::infinity());
        in[4] = numeric_traits<T>::from_double(
            -std::numeric_limits<double>::infinity());
      }
      Tensor<T> a(Shape{1, 1, 1, n}), b(Shape{1, 1, 1, n});
      ks->relu(in.data(), a.data().data(), n);
      ref.relu(in.data(), b.data().data(), n);
      EXPECT_TRUE(tensor::bitwise_equal(a, b)) << name << " relu";
    }
  }
}

TYPED_TEST(KernelProperty, PostMacOpsBitIdenticalToScalarOnOddShapes) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      for (const LrnGeom& g : kLrnGeoms) {
        const auto in = awkward<T>(g.c * g.h * g.w, 51, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_lrn(*ks, g, in),
                                          run_lrn(ref, g, in)))
            << name << " lrn c=" << g.c << " size=" << g.size
            << " season=" << static_cast<int>(season);
      }
      for (const PoolGeom& g : kPoolGeoms) {
        const auto in = awkward<T>(g.c * g.in_h * g.in_w, 57, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_maxpool(*ks, g, in),
                                          run_maxpool(ref, g, in)))
            << name << " maxpool c=" << g.c << " k=" << g.k
            << " season=" << static_cast<int>(season);
      }
      for (const auto& cp : kAvgPools) {
        const auto in = awkward<T>(cp[0] * cp[1], 61, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_avgpool(*ks, cp[0], cp[1], in),
                                          run_avgpool(ref, cp[0], cp[1], in)))
            << name << " avgpool c=" << cp[0] << " plane=" << cp[1]
            << " season=" << static_cast<int>(season);
      }
      for (const std::size_t n : kSoftmaxNs) {
        const auto in = awkward<T>(n, 67, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_softmax(*ks, n, in),
                                          run_softmax(ref, n, in)))
            << name << " softmax n=" << n
            << " season=" << static_cast<int>(season);
      }
    }
  }
}

/// Output regions of a c x h x w output the region tests run: the whole
/// box; 1-pixel boxes at two corners and the centre; a border-clamped
/// corner box; full-width multi-row boxes; a 3x3 box (9 pixels, not a
/// multiple of the conv body's 4-pixel groups); channel sub-ranges that
/// start and end inside a lane block, and for c > 8 inside a block group;
/// and random boxes.
std::vector<Region> test_regions(std::size_t c, std::size_t h, std::size_t w,
                                 std::uint64_t seed) {
  std::vector<Region> rs = {
      {0, c, 0, h, 0, w},
      {0, c, 0, 1, 0, 1},
      {0, c, h - 1, h, w - 1, w},
      {0, c, h / 2, h / 2 + 1, w / 2, w / 2 + 1},
      {0, c, h > 2 ? h - 2 : std::size_t{0}, h, 0, std::min<std::size_t>(2, w)},
      {0, c, h > 1 ? std::size_t{1} : std::size_t{0}, h, 0, w},
      {0, c, h / 2, h, 0, w},
      {0, c, 0, std::min<std::size_t>(3, h), 0, std::min<std::size_t>(3, w)},
      {c / 3, c - c / 4, 0, h, 0, w},
      {c / 2, c / 2 + 1, 0, std::min<std::size_t>(2, h), w / 3, w},
  };
  if (c > 8) {
    // Channel ranges that start and end inside a conv block group: lane
    // tails at both ends, then partial groups (at out_c = 53: blocks 1-2 at
    // 16 lanes, 3+2 at 8, 3+3+3+2 at 4; and 1, 3 and 3+3+2 blocks).
    rs.push_back({3, c - 3, 0, h, 0, w});
    rs.push_back({c * 3 / 8, c - 1, h / 3, h, 0, w});
  }
  Rng rng(seed);
  const auto span = [&](std::size_t n, std::size_t& lo, std::size_t& hi) {
    lo = static_cast<std::size_t>(rng() % n);
    hi = lo + 1 + static_cast<std::size_t>(rng() % (n - lo));
  };
  for (int i = 0; i < 8; ++i) {
    Region r;
    span(c, r.c0, r.c1);
    span(h, r.y0, r.y1);
    span(w, r.x0, r.x1);
    rs.push_back(r);
  }
  return rs;
}

/// Runs `kernel(out)` over a sentinel-filled output of `n` elements shaped
/// c x h x w, then checks that every element inside `r` equals the full
/// scalar output `want` bit for bit and every element outside `r` still
/// holds the sentinel.
template <typename T, class Kernel>
void expect_region_only(const Tensor<T>& want, const Region& r,
                        Kernel&& kernel, const std::string& what) {
  using Tr = numeric_traits<T>;
  const Shape s = want.shape();
  const auto sentinel = awkward<T>(want.size(), 97, Season::kNaN);
  std::vector<T> out(sentinel);
  kernel(out.data());
  for (std::size_t c = 0; c < s.c; ++c)
    for (std::size_t y = 0; y < s.h; ++y)
      for (std::size_t x = 0; x < s.w; ++x) {
        const std::size_t i = (c * s.h + y) * s.w + x;
        const bool inside = c >= r.c0 && c < r.c1 && y >= r.y0 &&
                            y < r.y1 && x >= r.x0 && x < r.x1;
        ASSERT_EQ(Tr::to_bits(out[i]),
                  Tr::to_bits(inside ? want[i] : sentinel[i]))
            << what << " (" << c << "," << y << "," << x << ") "
            << (inside ? "inside" : "outside") << " region c[" << r.c0 << ","
            << r.c1 << ") y[" << r.y0 << "," << r.y1 << ") x[" << r.x0
            << "," << r.x1 << ")";
      }
}

TYPED_TEST(KernelProperty, RegionCallsWriteExactlyTheRegion) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (const Season season : {Season::kFinite, Season::kNaN}) {
      for (ConvGeom g : kConvGeoms) {
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, season);
        const auto w = awkward<T>(g.out_c * g.steps(), 23, season);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        std::vector<T> packed(
            packed_elems(g.out_c, g.steps(), ks->pack_lanes));
        if (!packed.empty())
          pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes,
                    packed.data());
        const Tensor<T> want = run_conv(ref, g, in, w, bias);
        for (const std::int64_t lim : act_limits(w, g.out_c, g.steps())) {
          g.act_limit = lim;
          for (const Region& r : test_regions(g.out_c, g.out_h, g.out_w, 3)) {
            expect_region_only(
                want, r,
                [&](T* out) {
                  ks->conv(g, r, in.data(), w.data(),
                           packed.empty() ? nullptr : packed.data(),
                           bias.data(), out);
                },
                std::string(name) + " conv out_c=" +
                    std::to_string(g.out_c) +
                    " act_limit=" + std::to_string(lim));
          }
        }
      }
      for (const LrnGeom& g : kLrnGeoms) {
        const auto in = awkward<T>(g.c * g.h * g.w, 51, season);
        const Tensor<T> want = run_lrn(ref, g, in);
        for (const Region& r : test_regions(g.c, g.h, g.w, 5))
          expect_region_only(
              want, r, [&](T* out) { ks->lrn(g, r, in.data(), out); },
              std::string(name) + " lrn c=" + std::to_string(g.c));
      }
      for (const PoolGeom& g : kPoolGeoms) {
        const auto in = awkward<T>(g.c * g.in_h * g.in_w, 57, season);
        const Tensor<T> want = run_maxpool(ref, g, in);
        for (const Region& r : test_regions(g.c, g.out_h, g.out_w, 7))
          expect_region_only(
              want, r, [&](T* out) { ks->maxpool(g, r, in.data(), out); },
              std::string(name) + " maxpool c=" + std::to_string(g.c));
      }
    }
  }
}

TEST(KernelPayloadNaN, EveryHalfSetMatchesScalarWithOneNaNPerChain) {
  using T = numeric::Half;
  const KernelSet<T>& ref = scalar_kernels<T>();
  std::size_t nan_outputs = 0;
  const auto count_nans = [&](const Tensor<T>& t) {
    for (std::size_t i = 0; i < t.size(); ++i) nan_outputs += t[i].is_nan();
  };
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (std::uint64_t salt = 1; salt <= 12; ++salt) {
      // Odd salts season the inputs, even ones the weights (as salt + 100);
      // either way the 12 salts plant all four NaN forms.
      const Season in_season =
          salt % 2 ? Season::kPayloadNaN : Season::kFinite;
      const Season w_season =
          salt % 2 ? Season::kFinite : Season::kPayloadNaN;
      for (const ConvGeom& g : kConvGeoms) {
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, salt, in_season);
        const auto w = awkward<T>(g.out_c * g.steps(), salt + 100, w_season);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        const Tensor<T> want = run_conv(ref, g, in, w, bias);
        count_nans(want);
        const std::string what = std::string(name) + " conv out_c=" +
                                 std::to_string(g.out_c) +
                                 " salt=" + std::to_string(salt);
        EXPECT_TRUE(
            tensor::bitwise_equal(run_conv(*ks, g, in, w, bias), want))
            << what;
        std::vector<T> packed(
            packed_elems(g.out_c, g.steps(), ks->pack_lanes));
        if (!packed.empty())
          pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes,
                    packed.data());
        for (const Region& r : test_regions(g.out_c, g.out_h, g.out_w, salt))
          expect_region_only(
              want, r,
              [&](T* out) {
                ks->conv(g, r, in.data(), w.data(),
                         packed.empty() ? nullptr : packed.data(),
                         bias.data(), out);
              },
              what);
      }
      for (const FcGeom& g : kFcGeoms) {
        const auto in = awkward<T>(g.in, salt, in_season);
        const auto w = awkward<T>(g.out * g.in, salt + 100, w_season);
        const auto bias = awkward<T>(g.out, 7, Season::kFinite);
        const Tensor<T> want = run_fc(ref, g, in, w, bias);
        count_nans(want);
        EXPECT_TRUE(tensor::bitwise_equal(run_fc(*ks, g, in, w, bias), want))
            << name << " fc out=" << g.out << " salt=" << salt;
      }
    }
  }
  EXPECT_GT(nan_outputs, 0u) << "no planted NaN reached an output";
}

/// A stride-1 conv geometry (out = in + 2 pad - k + 1).
ConvGeom stride_one(std::size_t in_c, std::size_t in_h, std::size_t in_w,
                    std::size_t out_c, std::size_t k, std::size_t pad) {
  return {in_c, in_h, in_w, out_c, in_h + 2 * pad - k + 1,
          in_w + 2 * pad - k + 1, k, 1, pad};
}

// The avx512fp16 set runs stride-1 convs on output pairs over the region's
// input window, staged zero-padded into a stack tile of 8192 halves
// (kernel_avx512fp16.cpp). These cases aim at that body's edges: k 1, 3
// and 5 with every pad 0..k/2; in_c 1, 6 and 17; out_c 16, 19, 32, 35 and
// 48 (1-3 blocks, with and without a remainder); boxes 1 to 7 wide (a
// 1-wide box runs the 16-lane body), so odd rows end in a pair whose spare
// partner must not be stored, against the top-left and bottom-right padded
// edges and in the middle, over channel ranges that start or end inside a
// block. Three windows overflow the tile: 60c10x10 k3 runs in row bands
// (9 rows, then 1), 200c1x15 k3 in even column spans of its one row (10,
// then 5), and 690c1x2 k3, whose window for a single pair does not fit,
// runs the 16-lane body instead. Every registered SIMD Half set is held to
// the scalar one in the finite, NaN (with -0), Inf (with -0) and
// payload-NaN seasons.
TEST(KernelPairConv, StrideOneBoxesMatchScalarInEverySet) {
  using T = numeric::Half;
  const KernelSet<T>& ref = scalar_kernels<T>();
  const std::size_t taps[][2] = {{1, 0}, {3, 0}, {3, 1},
                                 {5, 0}, {5, 1}, {5, 2}};
  const std::size_t out_cs[] = {16, 19, 32, 35, 48};
  const std::size_t in_cs[] = {1, 6, 17};
  std::vector<ConvGeom> geoms;
  for (std::size_t i = 0; i < std::size(taps); ++i)
    for (std::size_t j = 0; j < std::size(out_cs); ++j)
      geoms.push_back(stride_one(in_cs[(i + j) % std::size(in_cs)], 5, 9,
                                 out_cs[j], taps[i][0], taps[i][1]));
  geoms.push_back(stride_one(60, 10, 10, 16, 3, 1));
  geoms.push_back(stride_one(200, 1, 15, 19, 3, 1));
  geoms.push_back(stride_one(690, 1, 2, 19, 3, 1));
  const Season seasons[][2] = {{Season::kFinite, Season::kFinite},
                               {Season::kNaN, Season::kNaN},
                               {Season::kInf, Season::kInf},
                               {Season::kPayloadNaN, Season::kFinite},
                               {Season::kFinite, Season::kPayloadNaN}};
  for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
    const ConvGeom& g = geoms[gi];
    const std::size_t c = g.out_c, h = g.out_h, w = g.out_w;
    std::vector<Region> boxes = {g.full()};
    for (std::size_t bw = 1; bw <= std::min<std::size_t>(7, w); ++bw) {
      boxes.push_back({0, c, 0, std::min<std::size_t>(2, h), 0, bw});
      boxes.push_back({5, c - 3, h - std::min<std::size_t>(3, h), h, w - bw,
                       w});
      boxes.push_back({0, c - 1, h / 2, h, (w - bw) / 2, (w - bw) / 2 + bw});
    }
    for (std::size_t si = 0; si < std::size(seasons); ++si) {
      const std::uint64_t salt = gi * 8 + si;
      const auto in =
          awkward<T>(g.in_c * g.in_h * g.in_w, salt, seasons[si][0]);
      const auto wt = awkward<T>(g.out_c * g.steps(), salt + 3, seasons[si][1]);
      const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
      const Tensor<T> want = run_conv(ref, g, in, wt, bias);
      for (const char* name : registered_names<T>()) {
        const KernelSet<T>* ks = kernel_set<T>(name);
        ASSERT_NE(ks, nullptr) << name;
        if (ks == &ref) continue;
        std::vector<T> packed(
            packed_elems(g.out_c, g.steps(), ks->pack_lanes));
        if (!packed.empty())
          pack_rows(wt.data(), g.out_c, g.steps(), ks->pack_lanes,
                    packed.data());
        for (const Region& r : boxes)
          expect_region_only(
              want, r,
              [&](T* out) {
                ks->conv(g, r, in.data(), wt.data(),
                         packed.empty() ? nullptr : packed.data(),
                         bias.data(), out);
              },
              std::string(name) + " in_c=" + std::to_string(g.in_c) +
                  " out_c=" + std::to_string(c) + " k=" +
                  std::to_string(g.k) + " pad=" + std::to_string(g.pad) +
                  " season=" + std::to_string(si));
      }
    }
  }
}

/// Whether the upper halves of ymm0-15 / zmm0-15 hold live state (XINUSE
/// bits 2 and 6, read by XGETBV with ECX = 1) after clearing them, running
/// `kernel`, and returning; nullopt where the CPU cannot report XINUSE, or
/// in an unoptimized build (GCC inserts VZEROUPPER only when optimizing,
/// and the library is built like this file).
template <class Kernel>
std::optional<bool> leaves_upper_state_dirty(Kernel&& kernel) {
#if defined(__x86_64__) && defined(__OPTIMIZE__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!numeric::cpu_has_avx() ||
      __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) == 0 ||
      (eax & 4U) == 0)
    return std::nullopt;
  asm volatile("vzeroupper");
  kernel();
  std::uint32_t lo = 0, hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 0x44U) != 0;
#else
  (void)kernel;
  return std::nullopt;
#endif
}

// The callers are baseline code, whose legacy-SSE instructions each pay a
// merge penalty while the upper vector state is dirty, so every kernel
// must return with it clear (VZEROUPPER). GCC 12 omits that for __m256h
// code: the avx512fp16 conv once made a ConvNet incremental replay ~8x
// slower while every output stayed bit-identical.
TYPED_TEST(KernelProperty, KernelsReturnWithUpperVectorStateClear) {
  using T = TypeParam;
  const ConvGeom g = kConvGeoms[4];
  // The same layer at stride 1, which the avx512fp16 set runs by pairs.
  const ConvGeom g1 = stride_one(g.in_c, g.in_h, g.in_w, g.out_c, g.k, g.pad);
  const FcGeom f = kFcGeoms[0];
  const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, Season::kFinite);
  const auto w = awkward<T>(g.out_c * g.steps(), 23, Season::kFinite);
  const auto fw = awkward<T>(f.out * f.in, 41, Season::kFinite);
  const auto bias = awkward<T>(std::max(g.out_c, f.out), 5, Season::kFinite);
  std::vector<T> out(g1.out_c * g1.out_h * g1.out_w);
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks->pack_lanes));
    std::vector<T> fpacked(packed_elems(f.out, f.in, ks->pack_lanes));
    if (!packed.empty()) {
      pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes, packed.data());
      pack_rows(fw.data(), f.out, f.in, ks->pack_lanes, fpacked.data());
    }
    const T* wp = packed.empty() ? nullptr : packed.data();
    const T* fwp = fpacked.empty() ? nullptr : fpacked.data();
    const auto conv = leaves_upper_state_dirty([&] {
      ks->conv(g, g.full(), in.data(), w.data(), wp, bias.data(), out.data());
    });
    if (!conv) GTEST_SKIP() << "unoptimized build or no XINUSE";
    EXPECT_FALSE(*conv) << name << " conv";
    EXPECT_FALSE(*leaves_upper_state_dirty([&] {
      ks->conv(g1, g1.full(), in.data(), w.data(), wp, bias.data(),
               out.data());
    })) << name << " conv stride 1";
    EXPECT_FALSE(*leaves_upper_state_dirty([&] {
      ks->fc(f, in.data(), fw.data(), fwp, bias.data(), out.data());
    })) << name << " fc";
    EXPECT_FALSE(*leaves_upper_state_dirty(
        [&] { ks->relu(in.data(), out.data(), in.size()); }))
        << name << " relu";
    T acc = bias[0], gold = bias[1];
    EXPECT_FALSE(*leaves_upper_state_dirty(
        [&] { ks->chain(in.data(), w.data(), in.size(), &acc); }))
        << name << " chain";
    EXPECT_FALSE(*leaves_upper_state_dirty([&] {
      ks->chain_pair(in.data(), w.data(), in.size(), &acc, &gold);
    })) << name << " chain_pair";
  }
}

TYPED_TEST(KernelProperty, HundredRunReuseIsStable) {
  using T = TypeParam;
  const ConvGeom g = kConvGeoms[0];
  const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 13, Season::kNaN);
  const auto w = awkward<T>(g.out_c * g.steps(), 17, Season::kNaN);
  const auto bias = awkward<T>(g.out_c, 19, Season::kFinite);
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    // Pack once, then reuse the packed copy and the output buffer for 100
    // runs without clearing either — the Workspace lifecycle.
    std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks->pack_lanes));
    if (!packed.empty())
      pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes, packed.data());
    Tensor<T> out(Shape{1, g.out_c, g.out_h, g.out_w});
    Tensor<T> first;
    for (int run = 0; run < 100; ++run) {
      ks->conv(g, g.full(), in.data(), w.data(),
               packed.empty() ? nullptr : packed.data(), bias.data(),
               out.data().data());
      if (run == 0)
        first = out;
      else
        ASSERT_TRUE(tensor::bitwise_equal(out, first))
            << name << " run " << run;
    }
    const Tensor<T> want = run_conv(scalar_kernels<T>(), g, in, w, bias);
    EXPECT_TRUE(tensor::bitwise_equal(first, want)) << name;
  }
}

/// Locks the restructured scalar LRN (column-buffered squares, pow(1,b)==1
/// and previous-base memo shortcuts) to the formula the Lrn layer used to
/// inline: a fresh pow per output over a window summed clo->chi. If the
/// restructure ever stops being bit-identical, fault-injection ground truth
/// silently shifts — this test is the tripwire.
template <typename T>
void lrn_restructure_locked() {
  using Tr = numeric_traits<T>;
  for (const LrnGeom& g : kLrnGeoms) {
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      const auto in = awkward<T>(g.c * g.h * g.w, 71, season);
      const Tensor<T> got = run_lrn(scalar_kernels<T>(), g, in);
      const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
      const std::size_t plane = g.h * g.w;
      for (std::size_t c = 0; c < g.c; ++c)
        for (std::size_t p = 0; p < plane; ++p) {
          const std::ptrdiff_t clo =
              std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(c) - half);
          const std::ptrdiff_t chi =
              std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(g.c) - 1,
                                       static_cast<std::ptrdiff_t>(c) + half);
          double ss = 0;
          for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
            const double v =
                Tr::to_double(in[static_cast<std::size_t>(cc) * plane + p]);
            ss += v * v;
          }
          const double denom = std::pow(
              g.k + g.alpha / static_cast<double>(g.size) * ss, g.beta);
          const T want =
              Tr::from_double(Tr::to_double(in[c * plane + p]) / denom);
          EXPECT_EQ(Tr::to_bits(got[c * plane + p]),
                    Tr::to_bits(want))
              << "c=" << c << " p=" << p
              << " season=" << static_cast<int>(season);
        }
    }
  }
}

/// Same tripwire for softmax: the buffered-exp restructure must match the
/// recompute-every-pass form the Softmax layer used to inline.
template <typename T>
void softmax_restructure_locked() {
  using Tr = numeric_traits<T>;
  for (const std::size_t n : kSoftmaxNs) {
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      const auto in = awkward<T>(n, 73, season);
      const Tensor<T> got = run_softmax(scalar_kernels<T>(), n, in);
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double v = Tr::to_double(in[i]);
        if (std::isfinite(v)) mx = std::max(mx, v);
      }
      if (!std::isfinite(mx)) mx = 0;
      const auto shifted_exp = [&](T raw) {
        double v = Tr::to_double(raw);
        if (std::isnan(v)) v = -std::numeric_limits<double>::infinity();
        return std::exp(std::min(v - mx, 700.0));
      };
      double sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += shifted_exp(in[i]);
      for (std::size_t i = 0; i < n; ++i) {
        const T want =
            Tr::from_double(sum > 0 ? shifted_exp(in[i]) / sum : 0.0);
        EXPECT_EQ(Tr::to_bits(got[i]), Tr::to_bits(want))
            << "i=" << i << " n=" << n
            << " season=" << static_cast<int>(season);
      }
    }
  }
}

// The two facts the avx512fp16 set's bit-identity rests on (see
// kernel_avx512fp16.cpp), on every first operand against every 64th second
// operand: 2^26 pairs, the residue mod 64 following the first operand so
// every bit pattern appears on both sides. test_fp16_exhaustive (slow) runs
// all 2^32.
TEST(KernelFp16Arith, NativeMulAddMatchF16cRoundTripStrided) {
  test::expect_native_fp16_matches_round_trip(64);
}

TEST(KernelRestructure, ScalarLrnMatchesLegacyFormulaBitwise) {
  lrn_restructure_locked<float>();
  lrn_restructure_locked<double>();
  lrn_restructure_locked<numeric::Half>();
}

TEST(KernelRestructure, ScalarSoftmaxMatchesLegacyFormulaBitwise) {
  softmax_restructure_locked<float>();
  softmax_restructure_locked<double>();
  softmax_restructure_locked<numeric::Half>();
}

TEST(KernelPacking, PackRowsInterleavesFullBlocksOnly) {
  const std::size_t rows = 10, cols = 3, lanes = 4;
  ASSERT_EQ(packed_elems(rows, cols, lanes), (rows / lanes) * cols * lanes);
  ASSERT_EQ(packed_elems(rows, cols, 0), 0u);
  std::vector<float> w(rows * cols);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  std::vector<float> dst(packed_elems(rows, cols, lanes), -1.0f);
  pack_rows(w.data(), rows, cols, lanes, dst.data());
  for (std::size_t b = 0; b < rows / lanes; ++b)
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t l = 0; l < lanes; ++l)
        EXPECT_EQ(dst[(b * cols + c) * lanes + l],
                  w[(b * lanes + l) * cols + c]);
}

// ---------------------------------------------------------------------------
// Fixed-point saturation seasoning. awkward() stays inside [-3, 3], so it
// never reaches the raw extremes where the MAC's per-step saturation and
// rounding shift decide the result. Each FC row / conv channel below is the
// tap sequence
//   t0  kRawMax * kRawMax       product saturates high      acc -> max
//   t1  kRawMax * kRawMin       product saturates low       acc -> -1
//   t2  kRawMin * kRawMin       2^62 (32-bit) saturates     acc -> max - 1
//   t3  positive product        acc saturates at max
//   t4  negative product        pulls the saturated acc back down
//   t5  -3 * 2^(F-1)            exact-half negative: -1.5 ulp rounds to -1
// with the bias alternating kRawMin / kRawMax, so a lane that saturates only
// at the end, skips the product saturation, or shifts logically diverges
// from the scalar reference.
// ---------------------------------------------------------------------------

template <typename T>
class FixedSaturation : public ::testing::Test {};
using FixedTypes =
    ::testing::Types<numeric::Fx32r26, numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(FixedSaturation, FixedTypes);

template <typename T>
T raw_fx(std::int64_t r) {
  return T::from_raw(static_cast<typename T::raw_type>(r));
}

constexpr std::size_t kSatTaps = 6;

/// Activation of tap t (shared by every row).
template <typename T>
T sat_act(std::size_t t) {
  constexpr std::int64_t kHalf = std::int64_t{1} << (T::kFraction - 1);
  const std::int64_t a[kSatTaps] = {T::kRawMax, T::kRawMin, T::kRawMin,
                                    T::kRawMax / 3, T::kRawMax / 5, kHalf};
  return raw_fx<T>(a[t]);
}

/// Weight of tap t in row r: the sequence above, with the t3/t4 magnitudes
/// varied per row so lanes differ.
template <typename T>
T sat_weight(std::size_t r, std::size_t t) {
  const auto k = static_cast<std::int64_t>(r % 7);
  constexpr std::int64_t kOne = std::int64_t{1} << T::kFraction;
  const std::int64_t w[kSatTaps] = {T::kRawMax, T::kRawMax, T::kRawMin,
                                    kOne * (2 + k), -kOne / (1 + k), -3};
  return raw_fx<T>(w[t]);
}

template <typename T>
T sat_bias(std::size_t r) {
  return raw_fx<T>(r % 2 == 0 ? T::kRawMin : T::kRawMax);
}

TYPED_TEST(FixedSaturation, EverySetMatchesScalarAtRawExtremes) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  // 19 rows: two 8-lane blocks plus a 3-row tail (one 16-lane block + 3).
  const FcGeom fg{kSatTaps, 19};
  std::vector<T> fin(fg.in), fw(fg.out * fg.in), fbias(fg.out);
  for (std::size_t t = 0; t < fg.in; ++t) fin[t] = sat_act<T>(t);
  for (std::size_t r = 0; r < fg.out; ++r) {
    for (std::size_t t = 0; t < fg.in; ++t)
      fw[r * fg.in + t] = sat_weight<T>(r, t);
    fbias[r] = sat_bias<T>(r);
  }
  // 1x1 conv, one input channel per tap, weights and bias as for FC
  // (out_c x in_c x 1 x 1 == out x in): output pixel 0 sees the sequence;
  // the other 5 pixels see the same activations rotated.
  const ConvGeom cg{kSatTaps, 2, 3, 19, 2, 3, 1, 1, 0};
  const std::size_t plane = cg.in_h * cg.in_w;
  std::vector<T> cin(cg.in_c * plane);
  for (std::size_t c = 0; c < cg.in_c; ++c)
    for (std::size_t p = 0; p < plane; ++p)
      cin[c * plane + p] = sat_act<T>((c + p) % kSatTaps);
  // relu over every extreme and its neighbours.
  const std::vector<T> rin{raw_fx<T>(T::kRawMin), raw_fx<T>(T::kRawMax),
                           raw_fx<T>(T::kRawMin + 1), raw_fx<T>(-1),
                           raw_fx<T>(0), raw_fx<T>(1),
                           raw_fx<T>(T::kRawMax - 1), raw_fx<T>(T::kRawMin),
                           raw_fx<T>(T::kRawMax), raw_fx<T>(-1)};

  const Tensor<T> fc_want = run_fc(ref, fg, fin, fw, fbias);
  const Tensor<T> conv_want = run_conv(ref, cg, cin, fw, fbias);
  // The reference itself must show the per-step behaviour the sequence is
  // built for: t0..t2 leave max - 1, t3 saturates, t4 pulls back, so row 0
  // ends strictly inside the range and the comparisons below are not
  // between two saturated values.
  const auto r0 = static_cast<std::int64_t>(fc_want[0].raw());
  EXPECT_GT(r0, static_cast<std::int64_t>(T::kRawMin));
  EXPECT_LT(r0, static_cast<std::int64_t>(T::kRawMax));
  // The raw-extreme weights and activations fail the bound: with the
  // plan's act_limit as with 0, every set must take the saturating body.
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (const std::int64_t lim : act_limits(fw, fg.out, fg.in)) {
      FcGeom fgl = fg;
      ConvGeom cgl = cg;
      fgl.act_limit = cgl.act_limit = lim;
      EXPECT_TRUE(tensor::bitwise_equal(run_fc(*ks, fgl, fin, fw, fbias),
                                        fc_want))
          << name << " fc act_limit=" << lim;
      EXPECT_TRUE(tensor::bitwise_equal(run_conv(*ks, cgl, cin, fw, fbias),
                                        conv_want))
          << name << " conv act_limit=" << lim;
    }
    Tensor<T> a(Shape{1, 1, 1, rin.size()}), b(Shape{1, 1, 1, rin.size()});
    ks->relu(rin.data(), a.data().data(), rin.size());
    ref.relu(rin.data(), b.data().data(), rin.size());
    EXPECT_TRUE(tensor::bitwise_equal(a, b)) << name << " relu";
  }
}

// ---------------------------------------------------------------------------
// The weight-sum bound (kernels.h, fixed point): fixed_act_limit promises
// that activations within +-limit never make a row's reference chain
// saturate, and the avx512 conv and FC then run their lane-blocks without
// the per-tap saturation. The comparisons above run at act_limit 0 and at
// the plan's limit; the tests below check the promise itself and the conv
// call's scan of its input window.
// ---------------------------------------------------------------------------

/// Row `w` (n taps)'s reference chain over activations `a`, as the raw int64
/// arithmetic of Fixed::operator* then operator+: true when a product or a
/// prefix sum left [RawMin, RawMax], i.e. when a saturation fired. The
/// modelled chain must end where T's own operators end.
template <typename T>
bool chain_saturates(const T* w, const std::vector<T>& a) {
  constexpr std::int64_t kHalf = std::int64_t{1} << (T::kFraction - 1);
  const auto clamp = [](std::int64_t v, bool& fired) {
    if (v > T::kRawMax || v < T::kRawMin) {
      fired = true;
      return v > T::kRawMax ? std::int64_t{T::kRawMax}
                            : std::int64_t{T::kRawMin};
    }
    return v;
  };
  bool fired = false;
  std::int64_t acc = 0;
  T ref = raw_fx<T>(0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t p =
        (std::int64_t{w[i].raw()} * a[i].raw() + kHalf) >> T::kFraction;
    acc = clamp(acc + clamp(p, fired), fired);
    const T product = w[i] * a[i];
    ref += product;
  }
  EXPECT_EQ(acc, std::int64_t{ref.raw()});
  return fired;
}

/// A raw value drawn uniformly from [-bound, bound].
std::int64_t draw_raw(Rng& rng, std::int64_t bound) {
  return static_cast<std::int64_t>(
             rng() % static_cast<std::uint64_t>(2 * bound + 1)) -
         bound;
}

// Random small weight matrices at every magnitude scale. Activations drawn
// within +-limit (uniformly, and the worst case: the limit with each
// weight's sign on the row of largest sum |w|) never saturate the reference
// chain, and every set handed that limit matches the scalar reference.
// Activations drawn at any scale up to the raw extremes saturate it only
// when some |a| exceeds the limit.
TYPED_TEST(FixedSaturation, ActLimitProvesNoSaturation) {
  using T = TypeParam;
  constexpr int kBits = 8 * static_cast<int>(sizeof(typename T::raw_type));
  const KernelSet<T>& ref = scalar_kernels<T>();
  Rng rng(2017);
  std::size_t saturated = 0;
  for (int iter = 0; iter < 300; ++iter) {
    // Up to two 8-lane blocks plus a tail (one 16-lane block plus 3).
    const std::size_t rows = 1 + rng() % 19, cols = 1 + rng() % 40;
    const std::int64_t wmax =
        std::min<std::int64_t>(T::kRawMax, std::int64_t{1} << rng() % kBits);
    std::vector<T> w(rows * cols);
    for (auto& v : w) v = raw_fx<T>(draw_raw(rng, wmax));
    const std::int64_t lim = fixed_act_limit(w.data(), rows, cols);
    ASSERT_GE(lim, 0);
    const std::int64_t amax = std::min<std::int64_t>(lim, T::kRawMax);
    std::size_t worst = 0;  // the row of largest sum |w|
    std::int64_t worst_sum = -1;
    for (std::size_t r = 0; r < rows; ++r) {
      std::int64_t sum = 0;
      for (std::size_t c = 0; c < cols; ++c)
        sum += std::abs(std::int64_t{w[r * cols + c].raw()});
      if (sum > worst_sum) {
        worst = r;
        worst_sum = sum;
      }
    }
    std::vector<T> uniform(cols), signed_limit(cols), any(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      uniform[c] = raw_fx<T>(draw_raw(rng, amax));
      signed_limit[c] =
          raw_fx<T>(w[worst * cols + c].raw() < 0 ? -amax : amax);
      const std::int64_t scale = std::min<std::int64_t>(
          T::kRawMax, std::int64_t{1} << rng() % kBits);
      any[c] = raw_fx<T>(rng() % 16 == 0 ? std::int64_t{T::kRawMin}
                                         : draw_raw(rng, scale));
    }
    const std::vector<T> bias(rows, raw_fx<T>(0));
    for (const auto* a : {&uniform, &signed_limit}) {
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_FALSE(chain_saturates(w.data() + r * cols, *a))
            << "iter " << iter << " row " << r << " limit " << lim;
      const FcGeom g{cols, rows, lim};
      const Tensor<T> want = run_fc(ref, g, *a, w, bias);
      for (const char* name : registered_names<T>())
        EXPECT_TRUE(tensor::bitwise_equal(
            run_fc(*kernel_set<T>(name), g, *a, w, bias), want))
            << name << " iter " << iter;
    }
    std::int64_t any_max = 0;
    for (const T& v : any)
      any_max = std::max(any_max, std::abs(std::int64_t{v.raw()}));
    for (std::size_t r = 0; r < rows; ++r)
      if (chain_saturates(w.data() + r * cols, any)) {
        ++saturated;
        EXPECT_GT(any_max, lim) << "iter " << iter << " row " << r;
      }
  }
  EXPECT_GT(saturated, 0u) << "no draw saturated: the converse went untested";
}

// The conv scan must cover every input row and column a region reads. A
// strided, padded region call whose only over-limit activation sits on the
// first or last row, or the first or last column, of the region's input
// window must take the saturating body. Channel 0's taps weigh 2 and read
// zeros except for one planted kRawMax, whose product saturates; channel
// 1's taps weigh -1 and read the limit, pulling the sum back below kRawMax.
// The unsaturated chain would end at kRawMax instead.
TYPED_TEST(FixedSaturation, RegionScanCoversTheWindowEdges) {
  using T = TypeParam;
  constexpr std::int64_t kOne = std::int64_t{1} << T::kFraction;
  // 11x11 input, k3 s2 p1: 6x6 output. Output rows and columns [1, 4)
  // read input rows and columns [1, 8).
  ConvGeom g{2, 11, 11, 16, 6, 6, 3, 2, 1};
  const Region r{0, 16, 1, 4, 1, 4};
  const std::size_t plane = g.in_h * g.in_w, taps = g.k * g.k;
  std::vector<T> w(g.out_c * g.steps());
  for (std::size_t o = 0; o < g.out_c; ++o)
    for (std::size_t t = 0; t < g.steps(); ++t)
      w[o * g.steps() + t] = raw_fx<T>(t < taps ? 2 * kOne : -kOne);
  g.act_limit = fixed_act_limit(w.data(), g.out_c, g.steps());
  ASSERT_GT(g.act_limit, 0);
  ASSERT_LT(g.act_limit, std::int64_t{T::kRawMax});
  const std::vector<T> bias(g.out_c, raw_fx<T>(0));
  std::vector<T> base(g.in_c * plane, raw_fx<T>(0));
  for (std::size_t p = 0; p < plane; ++p)
    base[plane + p] = raw_fx<T>(g.act_limit);
  const Tensor<T> want_base = run_conv(scalar_kernels<T>(), g, base, w, bias);
  const std::size_t edges[][2] = {{1, 4}, {7, 4}, {4, 1}, {4, 7}};  // y, x
  for (const auto& e : edges) {
    std::vector<T> in = base;
    in[e[0] * g.in_w + e[1]] = raw_fx<T>(T::kRawMax);
    const Tensor<T> want = run_conv(scalar_kernels<T>(), g, in, w, bias);
    ASSERT_FALSE(tensor::bitwise_equal(want, want_base))
        << "the planted activation must reach the output";
    for (const char* name : registered_names<T>()) {
      const KernelSet<T>* ks = kernel_set<T>(name);
      std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks->pack_lanes));
      if (!packed.empty())
        pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes,
                  packed.data());
      expect_region_only(
          want, r,
          [&](T* out) {
            ks->conv(g, r, in.data(), w.data(),
                     packed.empty() ? nullptr : packed.data(), bias.data(),
                     out);
          },
          std::string(name) + " planted at y=" + std::to_string(e[0]) +
              " x=" + std::to_string(e[1]));
    }
  }
}

// The FC scan must cover all `in` activations, across its 64-element
// chunks. The only over-limit activation (kRawMax, weight 2: its product
// saturates) sits first, last, or either side of a chunk boundary; every
// other tap weighs -1 and reads the limit, so the saturated chain ends below
// kRawMax and the unsaturated one at kRawMax.
TYPED_TEST(FixedSaturation, FcScanCoversEveryInput) {
  using T = TypeParam;
  constexpr std::int64_t kOne = std::int64_t{1} << T::kFraction;
  FcGeom g{130, 16};
  const std::vector<T> bias(g.out, raw_fx<T>(0));
  for (const std::size_t pos : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, g.in - 1}) {
    std::vector<T> w(g.out * g.in);
    for (std::size_t o = 0; o < g.out; ++o)
      for (std::size_t i = 0; i < g.in; ++i)
        w[o * g.in + i] = raw_fx<T>(i == pos ? 2 * kOne : -kOne);
    g.act_limit = fixed_act_limit(w.data(), g.out, g.in);
    ASSERT_GT(g.act_limit, 0);
    std::vector<T> in(g.in, raw_fx<T>(g.act_limit));
    in[pos] = raw_fx<T>(T::kRawMax);
    const Tensor<T> want = run_fc(scalar_kernels<T>(), g, in, w, bias);
    ASSERT_LT(std::int64_t{want[0].raw()}, std::int64_t{T::kRawMax});
    for (const char* name : registered_names<T>())
      EXPECT_TRUE(tensor::bitwise_equal(
          run_fc(*kernel_set<T>(name), g, in, w, bias), want))
          << name << " planted at " << pos;
  }
}

// ---------------------------------------------------------------------------
// Out-of-bounds guard: the row-major weights and their packed copy are each
// placed flush against a PROT_NONE page — once ending at it, once starting
// right after one — so a kernel that reads a single byte outside either
// array (e.g. one lane past the last packed block, or a wide load of the
// last 16-bit weight) faults and kills the test.
// ---------------------------------------------------------------------------

/// `n` elements of T flush against an inaccessible page: after the array
/// when `guard_after`, before it otherwise.
template <typename T>
class GuardedArray {
 public:
  GuardedArray(std::size_t n, bool guard_after) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = n * sizeof(T);
    data_pages_ = (bytes + page_ - 1) / page_;
    len_ = (data_pages_ + 2) * page_;
    void* m = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) return;
    base_ = static_cast<char*>(m);
    if (mprotect(base_, page_, PROT_NONE) != 0 ||
        mprotect(base_ + (data_pages_ + 1) * page_, page_, PROT_NONE) != 0)
      return;  // data() stays null: the test refuses to run unguarded
    char* const first = base_ + page_;
    data_ = reinterpret_cast<T*>(
        guard_after ? first + data_pages_ * page_ - bytes : first);
  }
  ~GuardedArray() {
    if (base_ != nullptr) munmap(base_, len_);
  }
  GuardedArray(const GuardedArray&) = delete;
  GuardedArray& operator=(const GuardedArray&) = delete;
  T* data() const { return data_; }

 private:
  std::size_t page_ = 0, data_pages_ = 0, len_ = 0;
  char* base_ = nullptr;
  T* data_ = nullptr;
};

TYPED_TEST(FixedSaturation, WeightReadsStayInsideTheArray) {
  using T = TypeParam;
  // out_c / out = 16: the last 8-lane block's lane 7 owns both arrays' last
  // row; 21 / 19: blocks plus tail rows, which read the row-major array.
  // Weights use every raw extreme.
  const ConvGeom convs[] = {{3, 5, 4, 16, 5, 4, 3, 1, 1},
                            {2, 4, 4, 21, 2, 2, 3, 2, 1}};
  const FcGeom fcs[] = {{37, 16}, {13, 19}};
  auto weights = [](std::size_t n, std::uint64_t salt) {
    auto v = awkward<T>(n, salt, Season::kFinite);
    v.front() = raw_fx<T>(T::kRawMin);
    v.back() = raw_fx<T>(T::kRawMax);
    return v;
  };
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    const std::size_t lanes = ks->pack_lanes;
    // Runs call(w, wp) on guarded copies of the rows x cols weights `wv`
    // and of their packed image (null when the set packs nothing).
    auto guarded = [&](const std::vector<T>& wv, std::size_t rows,
                       std::size_t cols, bool guard_after, auto&& call) {
      const std::size_t np = packed_elems(rows, cols, lanes);
      GuardedArray<T> w(wv.size(), guard_after), wp(np, guard_after);
      ASSERT_NE(w.data(), nullptr);
      ASSERT_NE(wp.data(), nullptr);
      std::copy(wv.begin(), wv.end(), w.data());
      if (np > 0) pack_rows(w.data(), rows, cols, lanes, wp.data());
      call(w.data(), np > 0 ? wp.data() : nullptr);
    };
    for (const bool guard_after : {true, false}) {
      for (ConvGeom g : convs) {
        const auto wv = weights(g.out_c * g.steps(), 23);
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11,
                                   Season::kFinite);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        for (const std::int64_t lim : act_limits(wv, g.out_c, g.steps())) {
          g.act_limit = lim;
          Tensor<T> got(Shape{1, g.out_c, g.out_h, g.out_w});
          guarded(wv, g.out_c, g.steps(), guard_after,
                  [&](const T* w, const T* wp) {
                    ks->conv(g, g.full(), in.data(), w, wp, bias.data(),
                             got.data().data());
                  });
          EXPECT_TRUE(tensor::bitwise_equal(
              got, run_conv(scalar_kernels<T>(), g, in, wv, bias)))
              << name << " conv out_c=" << g.out_c << " act_limit=" << lim;
        }
      }
      for (FcGeom g : fcs) {
        const auto wv = weights(g.out * g.in, 41);
        const auto in = awkward<T>(g.in, 31, Season::kFinite);
        const auto bias = awkward<T>(g.out, 7, Season::kFinite);
        for (const std::int64_t lim : act_limits(wv, g.out, g.in)) {
          g.act_limit = lim;
          Tensor<T> got(Shape{1, g.out, 1, 1});
          guarded(wv, g.out, g.in, guard_after,
                  [&](const T* w, const T* wp) {
                    ks->fc(g, in.data(), w, wp, bias.data(),
                           got.data().data());
                  });
          EXPECT_TRUE(tensor::bitwise_equal(
              got, run_fc(scalar_kernels<T>(), g, in, wv, bias)))
              << name << " fc out=" << g.out << " act_limit=" << lim;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Single chains (KernelSet::chain / chain_pair), the bodies Conv2d and
// FullyConnected::apply_faults run for every output a fault rewrites. Each
// registered set must equal the plain tap loop below: over random taps, the
// non-finite, payload-NaN and subnormal seasons (floating types), the
// saturation taps (fixed point), and lengths 0, 1 and odd ones either side
// of the apply_faults chunk. A chain pair's faulty accumulator starts as
// the golden one with one bit flipped (low bits tend to reconverge, high
// ones not) or, for floating types, as a payload NaN; its golden one is
// finite, so no two NaNs of different bit patterns ever meet in one add
// (the hole kernels.h documents).
// ---------------------------------------------------------------------------

enum class ChainSeason {
  kRandom,
  kNaN,
  kInf,
  kPayloadNaN,
  kSubnormal,
  kSaturated
};

/// n taps of one chain season; `salt` varies the values, `weights` picks
/// the weight half of a saturation sequence.
template <typename T>
std::vector<T> chain_taps(std::size_t n, std::uint64_t salt,
                          ChainSeason season, bool weights) {
  using Tr = numeric_traits<T>;
  std::vector<T> v(n);
  Rng rng(salt * 7919 + (weights ? 1 : 0));
  for (auto& x : v)
    x = Tr::from_double(rng.normal() * static_cast<double>(1 + salt % 4));
  if constexpr (Tr::is_floating) {
    if (season == ChainSeason::kNaN || season == ChainSeason::kInf) {
      const Season s = season == ChainSeason::kNaN ? Season::kNaN
                                                   : Season::kInf;
      const auto planted = awkward<T>(n, salt, s);
      if (n >= 8)
        for (const std::size_t i : {n / 5, n / 2, 2 * n / 3}) v[i] = planted[i];
    } else if (season == ChainSeason::kPayloadNaN &&
               weights == (salt % 2 == 0)) {
      // One NaN per chain, in the weights or the activations.
      const auto planted = awkward<T>(n, salt, Season::kPayloadNaN);
      for (std::size_t i = 0; i < n; ++i)
        if (std::isnan(Tr::to_double(planted[i]))) v[i] = planted[i];
    } else if (season == ChainSeason::kSubnormal) {
      // Every third tap a subnormal of either sign: products underflow to
      // signed zeros, sums of subnormals stay exact or round.
      using B = typename Tr::bits_type;
      for (std::size_t i = 0; i < n; i += 3) {
        const auto mant =
            static_cast<B>(1 + rng() % ((B{1} << Tr::exponent_lo) - 1));
        const auto sign =
            rng() % 2 ? static_cast<B>(B{1} << Tr::exponent_hi) : B{0};
        v[i] = Tr::from_bits(static_cast<B>(sign | mant));
      }
    }
  } else if (season == ChainSeason::kSaturated) {
    for (std::size_t i = 0; i < n; ++i)
      v[i] = weights ? sat_weight<T>(salt, i % kSatTaps)
                     : sat_act<T>(i % kSatTaps);
  }
  return v;
}

/// The plain tap loop both chain entries must reproduce.
template <typename T>
T loop_chain(const std::vector<T>& w, const std::vector<T>& a, T acc) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    const T product = w[i] * a[i];
    acc += product;
  }
  return acc;
}

/// The first tap count after which the two chains are bit-equal, or n + 1;
/// `acc` and `gold` end where that search stops.
template <typename T>
std::size_t loop_pair(const std::vector<T>& w, const std::vector<T>& a,
                      T& acc, T& gold) {
  using Tr = numeric_traits<T>;
  for (std::size_t k = 0;; ++k) {
    if (Tr::to_bits(acc) == Tr::to_bits(gold)) return k;
    if (k == w.size()) return k + 1;
    const T product = w[k] * a[k];
    acc += product;
    gold += product;
  }
}

template <typename T>
class KernelChain : public ::testing::Test {};
TYPED_TEST_SUITE(KernelChain, DatapathTypes);

TYPED_TEST(KernelChain, EverySetMatchesTheTapLoop) {
  using T = TypeParam;
  using Tr = numeric_traits<T>;
  using B = typename Tr::bits_type;
  using S = ChainSeason;
  const std::vector<S> seasons =
      Tr::is_floating ? std::vector<S>{S::kRandom, S::kNaN, S::kInf,
                                       S::kPayloadNaN, S::kSubnormal}
                      : std::vector<S>{S::kRandom, S::kSaturated};
  const std::size_t lengths[] = {0, 1, 3, 7, 31, 255, 257, 401};
  const int bits[] = {0, 1, 2, Tr::width / 2, Tr::width - 2, Tr::width - 1};
  std::size_t mid = 0, never = 0;
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    ASSERT_NE(ks->chain, nullptr) << name;
    ASSERT_NE(ks->chain_pair, nullptr) << name;
    for (const ChainSeason season : seasons) {
      for (const std::size_t n : lengths) {
        for (std::uint64_t salt = 1; salt <= 4; ++salt) {
          const auto w = chain_taps<T>(n, salt, season, true);
          const auto a = chain_taps<T>(n, salt, season, false);
          const T start = chain_taps<T>(1, salt + 50, ChainSeason::kRandom,
                                        false)[0];
          const std::string what =
              std::string(name) + " season=" +
              std::to_string(static_cast<int>(season)) +
              " n=" + std::to_string(n) + " salt=" + std::to_string(salt);
          T acc = start;
          ks->chain(w.data(), a.data(), n, &acc);
          EXPECT_EQ(Tr::to_bits(acc), Tr::to_bits(loop_chain(w, a, start)))
              << what;
          const bool nan_taps = season == ChainSeason::kNaN ||
                                season == ChainSeason::kPayloadNaN;
          std::vector<T> faulty_starts;
          for (const int bit : bits)
            faulty_starts.push_back(numeric::flip_bit(start, bit));
          if (Tr::is_floating && !nan_taps) {
            // A latch flip into an all-ones exponent: a payload NaN (kept
            // out of the NaN seasons, where it would meet a second NaN).
            const auto exp = static_cast<B>(
                ((B{1} << (Tr::exponent_hi - Tr::exponent_lo)) - 1)
                << Tr::exponent_lo);
            faulty_starts.push_back(Tr::from_bits(static_cast<B>(
                exp | (B{1} << (salt % Tr::exponent_lo)))));
          }
          for (const T f0 : faulty_starts) {
            // A flip into the exponent can itself make a NaN: kept out of
            // the NaN seasons, like the payload NaN start above.
            if (nan_taps && std::isnan(Tr::to_double(f0))) continue;
            T want_acc = f0, want_gold = start;
            const std::size_t want = loop_pair(w, a, want_acc, want_gold);
            T got_acc = f0, got_gold = start;
            const std::size_t got =
                ks->chain_pair(w.data(), a.data(), n, &got_acc, &got_gold);
            EXPECT_EQ(got, want) << what;
            EXPECT_EQ(Tr::to_bits(got_acc), Tr::to_bits(want_acc)) << what;
            EXPECT_EQ(Tr::to_bits(got_gold), Tr::to_bits(want_gold)) << what;
            mid += want > 0 && want <= n;
            never += want == n + 1;
          }
        }
      }
    }
  }
  EXPECT_GT(mid, 0u) << "no chain pair reconverged mid-chain";
  EXPECT_GT(never, 0u) << "every chain pair reconverged";
}

TYPED_TEST(KernelChain, PairStopsAtEqualEntryAndReturnsTheFirstEqualStep) {
  using T = TypeParam;
  using Tr = numeric_traits<T>;
  const auto w = chain_taps<T>(9, 3, ChainSeason::kRandom, true);
  const auto a = chain_taps<T>(9, 3, ChainSeason::kRandom, false);
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    // Equal on entry: k = 0 and nothing moves, whatever n.
    for (const std::size_t n : {std::size_t{0}, std::size_t{9}}) {
      T acc = a[0], gold = a[0];
      EXPECT_EQ(ks->chain_pair(w.data(), a.data(), n, &acc, &gold), 0u)
          << name;
      EXPECT_EQ(Tr::to_bits(acc), Tr::to_bits(a[0])) << name;
    }
    // Unequal over no taps: n + 1, nothing moves.
    T acc = a[0], gold = a[1];
    EXPECT_EQ(ks->chain_pair(w.data(), a.data(), 0, &acc, &gold), 1u) << name;
    EXPECT_EQ(Tr::to_bits(acc), Tr::to_bits(a[0])) << name;
    EXPECT_EQ(Tr::to_bits(gold), Tr::to_bits(a[1])) << name;
  }
}

template <typename T>
void executor_modes_match(const char* simd_mode) {
  const auto spec = zoo::network_spec(zoo::NetworkId::kConvNet);
  WeightsBlob blob;
  {
    Network<float> seed_net(spec);
    init_weights(seed_net, 99);
    blob = extract_weights(seed_net);
  }
  Tensor<float> img_f(spec.input);
  for (std::size_t i = 0; i < img_f.size(); ++i)
    img_f[i] = 0.01f * static_cast<float>(i % 113) - 0.5f;
  const Tensor<T> img = tensor::convert<T>(img_f);

  const ModeGuard guard;
  auto run_with = [&](const char* mode) {
    EXPECT_TRUE(set_active_mode(mode));
    Network<T> net(spec);  // plan captures the active set at build time
    load_weights(net, blob);
    const Executor<T> exec(net.plan());
    Workspace<T> ws(net.plan());
    RunRequest<T> req;
    req.input = img;
    Tensor<T> out(net.plan().output_shape());
    out.view().copy_from(exec.run(ws, req));
    return out;
  };
  const Tensor<T> scalar_out = run_with("scalar");
  const Tensor<T> simd_out = run_with(simd_mode);
  EXPECT_TRUE(tensor::bitwise_equal(simd_out, scalar_out)) << simd_mode;
}

TEST(KernelDispatch, ExecutorScalarAndAvx2ModesBitIdentical) {
  if (kernel_set<float>("avx2") == nullptr)
    GTEST_SKIP() << "avx2 kernels not available on this build/CPU";
  executor_modes_match<float>("avx2");
  executor_modes_match<numeric::Half>("avx2");
  executor_modes_match<double>("avx2");
}

TEST(KernelDispatch, ExecutorScalarAndAvx512ModesBitIdentical) {
  if (kernel_set<float>("avx512") == nullptr)
    GTEST_SKIP() << "avx512 kernels not available on this build/CPU";
  executor_modes_match<float>("avx512");
  executor_modes_match<numeric::Half>("avx512");
  executor_modes_match<double>("avx512");
  executor_modes_match<numeric::Fx32r26>("avx512");
  executor_modes_match<numeric::Fx32r10>("avx512");
  executor_modes_match<numeric::Fx16r10>("avx512");
}

TEST(KernelDispatch, ExecutorScalarAndAvx512Fp16ModesBitIdentical) {
  if (kernel_set<numeric::Half>("avx512fp16") == nullptr)
    GTEST_SKIP() << "avx512fp16 kernels not available on this build/CPU";
  executor_modes_match<numeric::Half>("avx512fp16");
  // The set is FLOAT16's alone: every other type resolves as avx512, and
  // auto prefers it for FLOAT16.
  EXPECT_EQ(kernel_set<float>("avx512fp16"), nullptr);
  const ModeGuard guard;
  ASSERT_TRUE(set_active_mode("avx512fp16"));
  EXPECT_STREQ(active_kernels<float>().name, "avx512");
  EXPECT_STREQ(active_kernels<numeric::Fx16r10>().name, "avx512");
  ASSERT_TRUE(set_active_mode("avx512"));
  EXPECT_STREQ(active_kernels<numeric::Half>().name, "avx512");
  ASSERT_TRUE(set_active_mode("auto"));
  EXPECT_STREQ(active_kernels<numeric::Half>().name, "avx512fp16");
}

TEST(KernelDispatch, UnknownModeRejected) {
  const ModeGuard guard;
  EXPECT_FALSE(set_active_mode("sse9"));
  EXPECT_TRUE(set_active_mode("auto"));
}

TEST(KernelDispatch, ModeGuardRestoresTheModeItFound) {
  // Not "auto": a guard inside a scope pinned to scalar (as a CI leg pins
  // DNNFI_KERNELS) hands scalar back.
  const std::string started = kernel_profile().mode;
  {
    const ModeGuard outer;
    ASSERT_TRUE(set_active_mode("scalar"));
    {
      const ModeGuard inner;
      ASSERT_TRUE(set_active_mode("auto"));
    }
    EXPECT_EQ(kernel_profile().mode, "scalar");
  }
  EXPECT_EQ(kernel_profile().mode, started);
}

}  // namespace
}  // namespace dnnfi::dnn::kernels
