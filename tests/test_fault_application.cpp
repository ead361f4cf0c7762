// Random-geometry differential test for fault application. apply_faults
// runs every rewritten output of a conv or FC step as the golden chain with
// one step changed, on a kernel set, with shortcuts (an operand
// upset whose product does not change, a chain pair that reconverges, an
// input outside an output's window). Here each registered set is checked
// against a naive reference written below: every rewritten output's whole
// chain in T with the fault applied at its step, and no shortcut. The
// outputs and every InjectionRecord field must be equal.
//
// Geometries, data and faults come from a splitmix64 stream per seed:
// conv kernels 1-5, strides 1-3, padding 0-2, odd channel counts around
// the 16/8/4 lane widths (and chains longer than the apply_faults tap
// chunk), inputs with zero activations, every fault kind x every MacSite
// x random, first, last and padded steps, toggles and stuck-at masks at
// any bit. A failure names its (seed, case).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/layers.h"
#include "dnnfi/numeric/traits.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using numeric::numeric_traits;
using tensor::Shape;

/// A conv layer's geometry; FC is the 1x1 conv over an in x 1 x 1 input.
struct Geom {
  bool fc = false;
  std::size_t in_c = 0, in_h = 1, in_w = 1, out_c = 0, k = 1, stride = 1,
              pad = 0;
  std::size_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  std::size_t plane() const { return out_h() * out_w(); }
  std::size_t steps() const { return in_c * k * k; }
  std::size_t outputs() const { return out_c * plane(); }
  std::size_t inputs() const { return in_c * in_h * in_w; }
};

/// Draws from one splitmix64 stream.
struct Draw {
  std::uint64_t state;
  std::uint64_t next() { return splitmix64(state); }
  std::size_t below(std::size_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <class C>
  auto pick(const C& c) {
    return c[below(std::size(c))];
  }
};

/// The naive reference: the whole chain of output e in T, with `mf` applied
/// at its step and the operand overrides patched in where they are read.
template <typename T>
struct Naive {
  using Override = std::optional<std::pair<std::size_t, T>>;
  Geom g;
  std::vector<T> w, bias, in;

  static void flip(InjectionRecord* rec, T v, const fault::FaultOp& op) {
    if (rec == nullptr) return;
    rec->corrupted_before = numeric_traits<T>::to_double(v);
    rec->corrupted_after =
        numeric_traits<T>::to_double(fault::apply_op(v, op));
    rec->zero_to_one = fault::op_zero_to_one(v, op);
    rec->applied = true;
  }

  T chain(std::size_t e, const MacFault* mf, InjectionRecord* rec,
          const Override& w_over, const Override& in_over) const {
    const std::size_t co = e / g.plane(), oy = e / g.out_w() % g.out_h(),
                      ox = e % g.out_w();
    T acc{};
    for (std::size_t s = 0; s < g.steps(); ++s) {
      const std::size_t ci = s / (g.k * g.k), ky = s / g.k % g.k, kx = s % g.k;
      const auto iy = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                      static_cast<std::ptrdiff_t>(g.pad);
      const auto ix = static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                      static_cast<std::ptrdiff_t>(g.pad);
      T a{};
      if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) && ix >= 0 &&
          ix < static_cast<std::ptrdiff_t>(g.in_w)) {
        const std::size_t ii = (ci * g.in_h + static_cast<std::size_t>(iy)) *
                                   g.in_w +
                               static_cast<std::size_t>(ix);
        a = in_over && in_over->first == ii ? in_over->second : in[ii];
      }
      const std::size_t wi = co * g.steps() + s;
      T wv = w_over && w_over->first == wi ? w_over->second : w[wi];
      const bool here = mf != nullptr && mf->step == s;
      if (here && mf->site == MacSite::kOperandAct) {
        flip(rec, a, mf->op);
        a = fault::apply_op(a, mf->op);
      }
      if (here && mf->site == MacSite::kOperandWeight) {
        flip(rec, wv, mf->op);
        wv = fault::apply_op(wv, mf->op);
      }
      T product = wv * a;
      if (here && mf->site == MacSite::kProduct) {
        flip(rec, product, mf->op);
        product = fault::apply_op(product, mf->op);
      }
      acc += product;
      if (here && mf->site == MacSite::kAccumulator) {
        flip(rec, acc, mf->op);
        acc = fault::apply_op(acc, mf->op);
      }
    }
    acc += bias[co];
    return acc;
  }

  std::vector<T> golden() const {
    std::vector<T> out(g.outputs());
    for (std::size_t e = 0; e < out.size(); ++e)
      out[e] = chain(e, nullptr, nullptr, std::nullopt, std::nullopt);
    return out;
  }

  static void note(InjectionRecord* rec, T before, T after) {
    if (rec == nullptr) return;
    rec->act_before = numeric_traits<T>::to_double(before);
    rec->act_after = numeric_traits<T>::to_double(after);
  }

  /// The stored-value upset of a weight or an input value, recorded.
  static T strike(InjectionRecord& rec, T v, const fault::FaultOp& op,
                  const std::optional<numeric::DType>& storage) {
    const T v1 = detail::storage_apply(v, op, storage);
    rec.corrupted_before = numeric_traits<T>::to_double(v);
    rec.corrupted_after = numeric_traits<T>::to_double(v1);
    rec.zero_to_one = detail::storage_apply_dir(v, op, storage);
    rec.applied = true;
    return v1;
  }

  void apply(const LayerFaults& f, std::vector<T>& out,
             InjectionRecord& rec) const {
    if (f.mac) {
      const T before = out[f.mac->out_index];
      out[f.mac->out_index] = chain(f.mac->out_index, &*f.mac, &rec,
                                    std::nullopt, std::nullopt);
      note(&rec, before, out[f.mac->out_index]);
    }
    if (f.weight) {
      const std::size_t wi = f.weight->weight_index;
      const T w1 = strike(rec, w[wi], f.weight->op, f.weight->storage);
      const std::size_t first = wi / g.steps() * g.plane();
      const T before = out[first];
      for (std::size_t e = first; e < first + g.plane(); ++e)
        out[e] = chain(e, nullptr, nullptr, std::pair{wi, w1}, std::nullopt);
      note(&rec, before, out[first]);
    }
    if (f.scoped_input) {
      const ScopedInputFault& s = *f.scoped_input;
      const T v1 = strike(rec, in[s.input_index], s.op, s.storage);
      const std::size_t row =
          (s.out_channel * g.out_h() + s.out_row) * g.out_w();
      const T before = out[row];
      for (std::size_t e = row; e < row + g.out_w(); ++e)
        out[e] = chain(e, nullptr, nullptr, std::nullopt,
                       std::pair{s.input_index, v1});
      note(&rec, before, out[row]);
    }
    if (f.column) {
      const ColumnFault& c = *f.column;
      bool first = true;
      for (std::size_t e = c.first_out; e < out.size(); ++e) {
        if (e / g.plane() % c.cols != c.col) continue;
        MacFault mf;
        mf.out_index = e;
        mf.step = c.step;
        mf.site = MacSite::kAccumulator;
        mf.op = c.op;
        const T before = out[e];
        out[e] = chain(e, &mf, first ? &rec : nullptr, std::nullopt,
                       std::nullopt);
        if (first) note(&rec, before, out[e]);
        first = false;
      }
    }
  }
};

template <typename T>
T draw_value(Draw& d, double scale) {
  return numeric_traits<T>::from_double((d.unit() * 2 - 1) * scale);
}

Geom draw_geom(Draw& d) {
  Geom g;
  const std::size_t odd[] = {1, 3, 5, 7, 9, 15, 17};
  g.out_c = d.pick(odd) + (d.below(4) == 0 ? 2 : 0);
  if (d.below(4) == 0) {
    // FC: up to twice the apply_faults tap chunk.
    g.fc = true;
    g.in_c = 1 + d.below(2 * detail::kTapChunk + 40);
    return g;
  }
  g.in_c = d.pick(odd);
  g.k = 1 + d.below(5);
  g.stride = 1 + d.below(3);
  g.pad = d.below(3);
  g.in_h = 1 + d.below(9);
  g.in_w = 1 + d.below(9);
  if (g.in_h + 2 * g.pad < g.k) g.in_h = g.k;
  if (g.in_w + 2 * g.pad < g.k) g.in_w = g.k;
  return g;
}

fault::FaultOp draw_op(Draw& d, int width) {
  const int bit = static_cast<int>(d.below(static_cast<std::size_t>(width)));
  switch (d.below(6)) {
    case 0:
      return fault::FaultOp::pattern(fault::FaultOpKind::kSet0,
                                     fault::FaultOp::burst_mask(bit, 2));
    case 1:
      return fault::FaultOp::pattern(fault::FaultOpKind::kSet1,
                                     fault::FaultOp::burst_mask(bit, 1));
    case 2:
      return fault::FaultOp::pattern(fault::FaultOpKind::kToggle,
                                     fault::FaultOp::burst_mask(bit, 3));
    default:
      return fault::FaultOp::pattern(fault::FaultOpKind::kToggle,
                                     fault::FaultOp::burst_mask(bit, 1));
  }
}

/// A step of output e: random, the first, the last, or (conv) one that
/// reads padding when the output has such a tap.
std::size_t draw_step(Draw& d, const Geom& g, std::size_t e) {
  switch (d.below(5)) {
    case 0:
      return 0;
    case 1:
      return g.steps() - 1;
    case 2: {
      const std::size_t oy = e / g.out_w() % g.out_h(), ox = e % g.out_w();
      for (std::size_t s = 0; s < g.steps(); ++s) {
        const std::size_t ky = s / g.k % g.k, kx = s % g.k;
        if (oy * g.stride + ky < g.pad || ox * g.stride + kx < g.pad ||
            oy * g.stride + ky - g.pad >= g.in_h ||
            ox * g.stride + kx - g.pad >= g.in_w)
          return s;
      }
      return d.below(g.steps());
    }
    default:
      return d.below(g.steps());
  }
}

/// Draws the case'th fault of a geometry: kinds and MacSites in turn.
LayerFaults draw_fault(Draw& d, const Geom& g, std::size_t kase, int width,
                       bool floating, std::string& what) {
  LayerFaults f;
  const auto op = draw_op(d, width);
  const std::optional<numeric::DType> storage =
      d.below(6) == 0 ? std::optional{floating ? numeric::DType::kFloat16
                                               : numeric::DType::kFx16r10}
                      : std::nullopt;
  std::ostringstream os;
  switch (kase % 7) {
    case 0:
    case 1:
    case 2:
    case 3: {
      MacFault m;
      m.out_index = d.below(g.outputs());
      m.step = draw_step(d, g, m.out_index);
      m.site = static_cast<MacSite>(kase % 7);
      m.op = op;
      f.mac = m;
      os << "mac site " << kase % 7 << " out " << m.out_index << " step "
         << m.step;
      break;
    }
    case 4: {
      WeightFault wf;
      wf.weight_index = d.below(g.out_c * g.steps());
      wf.op = op;
      wf.storage = storage;
      f.weight = wf;
      os << "weight " << wf.weight_index;
      break;
    }
    case 5: {
      ScopedInputFault s;
      s.input_index = d.below(g.inputs());
      s.out_channel = d.below(g.out_c);
      s.out_row = d.below(g.out_h());
      s.op = op;
      s.storage = storage;
      f.scoped_input = s;
      os << "input " << s.input_index << " row " << s.out_channel << ","
         << s.out_row;
      break;
    }
    default: {
      ColumnFault c;
      c.cols = 1 + d.below(4);
      c.col = d.below(c.cols);
      c.first_out = d.below(g.outputs());
      c.step = draw_step(d, g, c.first_out);
      c.op = op;
      f.column = c;
      os << "column " << c.col << "/" << c.cols << " from " << c.first_out
         << " step " << c.step;
      break;
    }
  }
  os << " " << op.describe() << (storage ? " stored" : "");
  what = os.str();
  return f;
}

/// The one-layer network of `n`'s geometry and parameters.
template <typename T>
Network<T> make_layer(const Naive<T>& n) {
  SpecBuilder b("t",
                n.g.fc ? tensor::vec(n.g.in_c)
                       : tensor::chw(n.g.in_c, n.g.in_h, n.g.in_w),
                0);
  auto layer = scalar_ref::one_layer<T>(
      n.g.fc ? b.fc(n.g.out_c) : b.conv(n.g.out_c, n.g.k, n.g.stride, n.g.pad));
  layer.update_params([&](auto p) {
    std::ranges::copy(n.w, p[0].weights.begin());
    std::ranges::copy(n.bias, p[0].biases.begin());
  });
  return layer;
}

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T>
class FaultApplication : public ::testing::Test {};

using DatapathTypes =
    ::testing::Types<double, float, numeric::Half, numeric::Fx32r26,
                     numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(FaultApplication, DatapathTypes);

// The budget: kSeeds geometries of kCases faults each, per type.
constexpr std::uint64_t kSeeds = 400;
constexpr std::size_t kCases = 28;

TYPED_TEST(FaultApplication, EverySetMatchesTheNaiveFullChains) {
  using T = TypeParam;
  using Tr = numeric_traits<T>;
  const double scale = Tr::is_floating ? 2.0 : 1.5;
  std::size_t kept = 0, changed = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Draw d{seed * 0x9E3779B97F4A7C15ULL};
    Naive<T> n;
    n.g = draw_geom(d);
    n.w.resize(n.g.out_c * n.g.steps());
    n.bias.resize(n.g.out_c);
    n.in.resize(n.g.inputs());
    for (auto& v : n.w) v = d.below(10) == 0 ? T{} : draw_value<T>(d, scale);
    for (auto& v : n.bias) v = draw_value<T>(d, scale);
    // ReLU-like activations: many zeros, some of them negative zeros.
    for (auto& v : n.in)
      v = d.below(5) < 2 ? (d.below(4) == 0 ? Tr::from_double(-0.0) : T{})
                         : draw_value<T>(d, scale);
    const auto layer = make_layer(n);
    const PlanStep<T>& st = layer.plan().steps()[0];
    const std::vector<T> golden = n.golden();
    const Shape is = st.in_shape;
    const Shape os = st.out_shape;
    ASSERT_EQ(os.size(), golden.size());
    tensor::Tensor<T> in(is);
    std::copy(n.in.begin(), n.in.end(), in.data().begin());
    for (std::size_t kase = 0; kase < kCases; ++kase) {
      std::string what;
      const LayerFaults f =
          draw_fault(d, n.g, kase, Tr::width, Tr::is_floating, what);
      std::vector<T> want = golden;
      InjectionRecord want_rec;
      n.apply(f, want, want_rec);
      bool any_change = false;
      for (std::size_t e = 0; e < want.size(); ++e)
        any_change |= Tr::to_bits(want[e]) != Tr::to_bits(golden[e]);
      (any_change ? changed : kept) += 1;
      for (const char* name : kernels::registered_names<T>()) {
        SCOPED_TRACE(::testing::Message()
                     << "(seed " << seed << ", case " << kase << ") set "
                     << name << ": " << what << (n.g.fc ? " fc" : " conv")
                     << " in " << n.g.in_c << "x" << n.g.in_h << "x"
                     << n.g.in_w << " out_c " << n.g.out_c << " k " << n.g.k
                     << " s " << n.g.stride << " p " << n.g.pad);
        tensor::Tensor<T> out(os);
        std::copy(golden.begin(), golden.end(), out.data().begin());
        InjectionRecord rec;
        apply_faults(st, in.view(), out.view(), f, &rec,
                     *kernels::kernel_set<T>(name));
        for (std::size_t e = 0; e < want.size(); ++e)
          ASSERT_EQ(Tr::to_bits(out[e]), Tr::to_bits(want[e]))
              << "output " << e;
        EXPECT_EQ(dbits(rec.corrupted_before),
                  dbits(want_rec.corrupted_before));
        EXPECT_EQ(dbits(rec.corrupted_after), dbits(want_rec.corrupted_after));
        EXPECT_EQ(dbits(rec.act_before), dbits(want_rec.act_before));
        EXPECT_EQ(dbits(rec.act_after), dbits(want_rec.act_after));
        EXPECT_EQ(rec.zero_to_one, want_rec.zero_to_one);
        EXPECT_EQ(rec.applied, want_rec.applied);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // Both outcomes occur: faults the chains absorb and faults that show.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(changed, 0u);
}

}  // namespace
}  // namespace dnnfi::dnn
