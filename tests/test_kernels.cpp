// Kernel registry property tests: every registered SIMD kernel set is
// checked against the scalar reference across all six datapath types, odd
// shapes (output channels not divisible by the lane width, including the
// zero-full-blocks case), non-finite inputs (NaN / ±Inf / -0 propagation,
// canonical-NaN rule for FLOAT16, fault-style payload NaNs), and 100-run
// buffer reuse — asserting tensor::bitwise_equal for every set, MAC and
// post-MAC ops (lrn / maxpool / avgpool / softmax) alike, with
// restructure-lock tests pinning the scalar reference to the formulas the
// layers used to inline. Plus the packed-layout formula itself, native
// FP16 arithmetic against the F16C round trip (fp16_arith.h), a check that
// every kernel returns with the upper vector state clear, and
// executor-level integration checks that set_active_mode("scalar") and
// each SIMD mode produce byte-identical network outputs.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
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
// body runs 4 output pixels per pass and the last out_h*out_w % 4 one at a
// time: the 7x5 plane leaves 3 such pixels, and its 4-pixel groups straddle
// output rows and the padded right border.
const ConvGeom kConvGeoms[] = {
    {3, 9, 7, 13, 5, 4, 3, 2, 1},   // strided, padded, tail rows
    {5, 6, 6, 7, 6, 6, 1, 1, 0},    // 1x1 kernel, zero full blocks at w=8
    {8, 8, 8, 16, 8, 8, 3, 1, 1},   // full blocks only (at 16, 8 and 4 lanes)
    {4, 5, 5, 9, 2, 2, 3, 2, 0},    // stride 2, no padding
    {2, 7, 7, 21, 4, 4, 3, 2, 1},   // blocks plus a tail at every width
    {3, 13, 9, 21, 7, 5, 3, 2, 1},  // pixel groups wrap rows; 3-pixel tail
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
      for (const ConvGeom& g : kConvGeoms) {
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, season);
        const auto w = awkward<T>(g.out_c * g.steps(), 23, season);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        EXPECT_TRUE(tensor::bitwise_equal(run_conv(*ks, g, in, w, bias),
                                          run_conv(ref, g, in, w, bias)))
            << name << " conv out_c=" << g.out_c
            << " season=" << static_cast<int>(season);
      }
      for (const FcGeom& g : kFcGeoms) {
        const auto in = awkward<T>(g.in, 31, season);
        const auto w = awkward<T>(g.out * g.in, 41, season);
        const auto bias = awkward<T>(g.out, 7, Season::kFinite);
        EXPECT_TRUE(tensor::bitwise_equal(run_fc(*ks, g, in, w, bias),
                                          run_fc(ref, g, in, w, bias)))
            << name << " fc out=" << g.out
            << " season=" << static_cast<int>(season);
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
/// start and end inside a lane block; and random boxes.
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
      for (const ConvGeom& g : kConvGeoms) {
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, season);
        const auto w = awkward<T>(g.out_c * g.steps(), 23, season);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        std::vector<T> packed(
            packed_elems(g.out_c, g.steps(), ks->pack_lanes));
        if (!packed.empty())
          pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes,
                    packed.data());
        const Tensor<T> want = run_conv(ref, g, in, w, bias);
        for (const Region& r : test_regions(g.out_c, g.out_h, g.out_w, 3)) {
          expect_region_only(
              want, r,
              [&](T* out) {
                ks->conv(g, r, in.data(), w.data(),
                         packed.empty() ? nullptr : packed.data(),
                         bias.data(), out);
              },
              std::string(name) + " conv out_c=" + std::to_string(g.out_c));
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
  const FcGeom f = kFcGeoms[0];
  const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, Season::kFinite);
  const auto w = awkward<T>(g.out_c * g.steps(), 23, Season::kFinite);
  const auto fw = awkward<T>(f.out * f.in, 41, Season::kFinite);
  const auto bias = awkward<T>(std::max(g.out_c, f.out), 5, Season::kFinite);
  std::vector<T> out(g.out_c * g.out_h * g.out_w);
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
      ks->fc(f, in.data(), fw.data(), fwp, bias.data(), out.data());
    })) << name << " fc";
    EXPECT_FALSE(*leaves_upper_state_dirty(
        [&] { ks->relu(in.data(), out.data(), in.size()); }))
        << name << " relu";
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
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    EXPECT_TRUE(tensor::bitwise_equal(run_fc(*ks, fg, fin, fw, fbias),
                                      fc_want))
        << name << " fc";
    EXPECT_TRUE(tensor::bitwise_equal(run_conv(*ks, cg, cin, fw, fbias),
                                      conv_want))
        << name << " conv";
    Tensor<T> a(Shape{1, 1, 1, rin.size()}), b(Shape{1, 1, 1, rin.size()});
    ks->relu(rin.data(), a.data().data(), rin.size());
    ref.relu(rin.data(), b.data().data(), rin.size());
    EXPECT_TRUE(tensor::bitwise_equal(a, b)) << name << " relu";
  }
}

// ---------------------------------------------------------------------------
// Out-of-bounds guard: the weight array is placed flush against a PROT_NONE
// page — once ending at it, once starting right after one — so a kernel that
// reads a single byte outside the array (e.g. a 4-byte gather of the last
// 16-bit weight) faults and kills the test.
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
  // out_c / out = 16: the last 8-lane block's lane 7 owns the array's last
  // row; 21 / 19: blocks plus tail rows. Weights use every raw extreme.
  const ConvGeom convs[] = {{3, 5, 4, 16, 5, 4, 3, 1, 1},
                            {2, 4, 4, 21, 2, 2, 3, 2, 1}};
  const FcGeom fcs[] = {{37, 16}, {13, 19}};
  auto fill = [](T* p, std::size_t n, std::uint64_t salt) {
    const auto v = awkward<T>(n, salt, Season::kFinite);
    for (std::size_t i = 0; i < n; ++i) p[i] = v[i];
    p[0] = raw_fx<T>(T::kRawMin);
    p[n - 1] = raw_fx<T>(T::kRawMax);
  };
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    if (ks->pack_lanes != 0) continue;  // reads a packed copy, not `w`
    for (const bool guard_after : {true, false}) {
      for (const ConvGeom& g : convs) {
        const std::size_t n = g.out_c * g.steps();
        GuardedArray<T> w(n, guard_after);
        ASSERT_NE(w.data(), nullptr);
        fill(w.data(), n, 23);
        const std::vector<T> wv(w.data(), w.data() + n);
        const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11,
                                   Season::kFinite);
        const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
        Tensor<T> got(Shape{1, g.out_c, g.out_h, g.out_w});
        ks->conv(g, g.full(), in.data(), w.data(), nullptr, bias.data(),
                 got.data().data());
        EXPECT_TRUE(tensor::bitwise_equal(
            got, run_conv(scalar_kernels<T>(), g, in, wv, bias)))
            << name << " conv out_c=" << g.out_c;
      }
      for (const FcGeom& g : fcs) {
        const std::size_t n = g.out * g.in;
        GuardedArray<T> w(n, guard_after);
        ASSERT_NE(w.data(), nullptr);
        fill(w.data(), n, 41);
        const std::vector<T> wv(w.data(), w.data() + n);
        const auto in = awkward<T>(g.in, 31, Season::kFinite);
        const auto bias = awkward<T>(g.out, 7, Season::kFinite);
        Tensor<T> got(Shape{1, g.out, 1, 1});
        ks->fc(g, in.data(), w.data(), nullptr, bias.data(),
               got.data().data());
        EXPECT_TRUE(tensor::bitwise_equal(
            got, run_fc(scalar_kernels<T>(), g, in, wv, bias)))
            << name << " fc out=" << g.out;
      }
    }
  }
}

/// set_active_mode is process-global; restore the default on scope exit so
/// test order cannot leak a scalar override into other suites.
struct ModeGuard {
  ~ModeGuard() { set_active_mode("auto"); }
};

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

  ModeGuard guard;
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
  ModeGuard guard;
  ASSERT_TRUE(set_active_mode("avx512fp16"));
  EXPECT_STREQ(active_kernels<float>().name, "avx512");
  EXPECT_STREQ(active_kernels<numeric::Fx16r10>().name, "avx512");
  ASSERT_TRUE(set_active_mode("avx512"));
  EXPECT_STREQ(active_kernels<numeric::Half>().name, "avx512");
  ASSERT_TRUE(set_active_mode("auto"));
  EXPECT_STREQ(active_kernels<numeric::Half>().name, "avx512fp16");
}

TEST(KernelDispatch, UnknownModeRejected) {
  EXPECT_FALSE(set_active_mode("sse9"));
  EXPECT_TRUE(set_active_mode("auto"));
}

}  // namespace
}  // namespace dnnfi::dnn::kernels
