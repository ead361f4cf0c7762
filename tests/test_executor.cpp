// Compiled-plan engine: bit-exact equivalence of Executor<T> and
// ActivationCache<T> against a layer-by-layer reference execution
// (plain forward, every-layer golden activations, and fault-patched partial
// re-execution) for every datapath type, plus workspace-reuse hygiene
// across many consecutive faulty runs, coherence of the plan's packed
// weight copy across weight updates under every kernel set, and one plan
// shared by several threads.
//
// The references here are per-layer Tensor loops over a second plan built
// on the scalar set (scalar_reference.h): whole steps into fresh tensors,
// no arena, no cache, no dirty regions, no packed weights, so the
// equivalence claim does not depend on the set or the replay machinery
// under test. (The test names' "Legacy" is that reference.)
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/layers.h"
#include "dnnfi/dnn/train.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"
#include "kernel_mode_guard.h"
#include "scalar_reference.h"

namespace dnnfi::dnn {
namespace {

using tensor::Tensor;

NetworkSpec convnet_spec() { return zoo::network_spec(zoo::NetworkId::kConvNet); }

WeightsBlob random_blob(const NetworkSpec& spec, std::uint64_t seed) {
  Network<float> net(spec);
  init_weights(net, seed);
  return extract_weights(net);
}

template <typename T>
Tensor<T> random_image(const tensor::Shape& s, std::uint64_t seed) {
  Tensor<float> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal() * 0.5);
  return tensor::convert<T>(t);
}

/// Per-layer activations of one reference forward pass: `acts[i]` is the
/// output of layer i, `input` the network input.
template <typename T>
struct RefTrace {
  Tensor<T> input;
  std::vector<Tensor<T>> acts;

  const Tensor<T>& layer_input(std::size_t layer) const {
    return layer == 0 ? input : acts[layer - 1];
  }
};

/// Reference trace: every layer output of a scalar-set plan, one step at a
/// time, materialized into owning tensors.
template <typename T>
RefTrace<T> reference_trace(const Network<T>& net, const Tensor<T>& input) {
  const ExecutionPlan<T> plan = scalar_ref::plan(net);
  RefTrace<T> tr;
  tr.input = input;
  tr.acts.reserve(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i)
    tr.acts.push_back(scalar_ref::step(plan, i, tr.layer_input(i)));
  return tr;
}

/// Reference faulty run, layer by layer on the scalar set: patch (or
/// recompute on flipped input) at the fault layer, then a whole step into a
/// fresh tensor for each later layer. `acts[i]` is layer i's faulty output
/// for i >= f.layer (empty before).
template <typename T>
std::vector<Tensor<T>> reference_fault_trace(const Network<T>& net,
                                             const RefTrace<T>& golden,
                                             const AppliedFault& f) {
  const ExecutionPlan<T> plan = scalar_ref::plan(net);
  std::vector<Tensor<T>> acts(net.num_layers());
  Tensor<T>& a = acts[f.layer];
  if (f.flip_layer_input) {
    Tensor<T> in = golden.layer_input(f.layer);
    in[f.input_index] =
        detail::storage_apply(in[f.input_index], f.input_op, f.input_storage);
    a = scalar_ref::step(plan, f.layer, in);
  } else {
    a = golden.acts[f.layer];
    apply_faults(plan.steps()[f.layer], golden.layer_input(f.layer), a,
                 f.faults, nullptr, kernels::scalar_kernels<T>());
  }
  for (std::size_t i = f.layer + 1; i < net.num_layers(); ++i)
    acts[i] = scalar_ref::step(plan, i, acts[i - 1]);
  return acts;
}

/// Reference faulty run: the final output of reference_fault_trace.
template <typename T>
Tensor<T> reference_fault(const Network<T>& net, const RefTrace<T>& golden,
                          const AppliedFault& f) {
  return reference_fault_trace(net, golden, f).back();
}

template <typename T>
void expect_bits_equal(tensor::ConstTensorView<T> got, const Tensor<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(numeric::numeric_traits<T>::to_bits(got[i]),
              numeric::numeric_traits<T>::to_bits(want[i]))
        << "element " << i;
}

constexpr MacSite kMacSites[] = {MacSite::kOperandAct, MacSite::kOperandWeight,
                                 MacSite::kProduct, MacSite::kAccumulator};

/// Deterministic fault of class (trial % 4) targeting MAC layer
/// (trial % mac count), with indices derived from the trial number.
template <typename T>
AppliedFault nth_fault(const Network<T>& net, std::size_t trial) {
  const auto& macs = net.mac_layers();
  const std::size_t layer = macs[trial % macs.size()];
  const auto& step = net.plan().steps()[layer];
  const std::size_t out_elems = step.out_shape.size();
  const std::size_t mac_steps = step.macs / out_elems;
  const int bit = static_cast<int>(trial % 10);  // low bits valid for all T

  AppliedFault f;
  f.layer = layer;
  switch (trial % 4) {
    case 0: {
      MacFault mf;
      mf.out_index = trial % out_elems;
      mf.step = trial % mac_steps;
      mf.site = kMacSites[trial % std::size(kMacSites)];
      mf.op = fault::FaultOp::flip(bit);
      f.faults.mac = mf;
      break;
    }
    case 1: {
      WeightFault wf;
      wf.weight_index = (trial * 7) % net.params()[layer].weights.size();
      wf.op = fault::FaultOp::flip(bit);
      f.faults.weight = wf;
      break;
    }
    case 2: {
      ScopedInputFault sf;
      sf.input_index = (trial * 11) % step.in_shape.size();
      sf.out_channel = 0;
      sf.out_row = 0;
      sf.op = fault::FaultOp::flip(bit);
      f.faults.scoped_input = sf;
      break;
    }
    default: {
      f.flip_layer_input = true;
      f.input_index = (trial * 13) % step.in_shape.size();
      f.input_op = fault::FaultOp::flip(bit);
      break;
    }
  }
  return f;
}

template <typename T>
class ExecutorEquivalence : public ::testing::Test {};

using DatapathTypes =
    ::testing::Types<double, float, numeric::Half, numeric::Fx32r26,
                     numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(ExecutorEquivalence, DatapathTypes);

TYPED_TEST(ExecutorEquivalence, PlanResolvesShapesAndMacs) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  const ExecutionPlan<T>& plan = net.plan();
  ASSERT_EQ(plan.num_layers(), net.num_layers());
  EXPECT_EQ(plan.input_shape(), spec.input);
  EXPECT_EQ(plan.total_macs(), net.total_macs());
  tensor::Shape shape = spec.input;
  for (std::size_t i = 0; i < plan.num_layers(); ++i) {
    EXPECT_EQ(plan.steps()[i].in_shape, shape);
    shape = shape_after(spec.layers[i], shape);
    EXPECT_EQ(plan.steps()[i].out_shape, shape);
    EXPECT_GE(plan.buffer_elems(), shape.size());
  }
  EXPECT_EQ(plan.output_shape().size(), spec.num_classes);
  EXPECT_EQ(plan.arena_elems(), 2 * plan.buffer_elems() + plan.input_elems());
}

// The plan owns the one packed weight copy: every workspace bound to it
// reads that copy, and a workspace's arena is ping + pong + patch only.
TYPED_TEST(ExecutorEquivalence, WorkspacesShareThePlansPackedCopy) {
  using T = TypeParam;
  Network<T> net(convnet_spec());
  const ExecutionPlan<T>& plan = net.plan();
  EXPECT_EQ(plan.packed_data() == nullptr, plan.kernel_set().pack_lanes == 0);
  const Workspace<T> a(plan);
  const Workspace<T> b(plan);
  EXPECT_EQ(a.packed_data(), plan.packed_data());
  EXPECT_EQ(b.packed_data(), plan.packed_data());
  const std::size_t bytes =
      (2 * plan.buffer_elems() + plan.input_elems()) * sizeof(T);
  EXPECT_EQ(a.arena_bytes(), bytes);
  EXPECT_EQ(b.arena_bytes(), bytes);
}

// Weights change only through Network::update_params, which re-takes the
// plan's packed copy. Under every kernel set, a workspace and a cache are
// held on the plan while the weights change (a second blob; for float also
// one SGD step); then the held workspace's plain and incremental faulty
// runs and a rebuild of the held cache match the layer-by-layer reference,
// which reads the layers' row-major weights.
TYPED_TEST(ExecutorEquivalence, WeightUpdatesReachEveryRunUnderEverySet) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  const auto img = random_image<T>(spec.input, 82);
  const kernels::ModeGuard guard;
  for (const char* name : kernels::registered_names<T>()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(kernels::set_active_mode(name));
    Network<T> net(spec);
    ASSERT_STREQ(net.plan().kernel_set().name, name);
    load_weights(net, random_blob(spec, 81));
    const Executor<T> exec(net.plan());
    Workspace<T> ws(net.plan());
    ActivationCache<T> cache(net.plan(), img);

    load_weights(net, random_blob(spec, 83));
    if constexpr (std::is_same_v<T, float>) {
      TrainConfig cfg;
      cfg.epochs = 1;
      cfg.train_count = 2;
      cfg.batch = 2;
      train(net,
            [&](std::uint64_t i) {
              return Example{random_image<float>(spec.input, 90 + i),
                             static_cast<std::size_t>(i) % spec.num_classes};
            },
            cfg);
    }

    RunRequest<T> plain;
    plain.input = img;
    expect_bits_equal<T>(exec.run(ws, plain), scalar_ref::forward(net, img));
    cache.build(net.plan(), img);
    const RefTrace<T> golden = reference_trace(net, img);
    for (std::size_t i = 0; i < cache.num_layers(); ++i)
      expect_bits_equal<T>(cache.act(i), golden.acts[i]);
    for (std::size_t trial = 0; trial < 8; ++trial) {
      const AppliedFault f = nth_fault(net, trial);
      RunRequest<T> req;
      req.cache = &cache;
      req.fault = &f;
      req.early_exit = true;
      expect_bits_equal<T>(exec.run(ws, req), reference_fault(net, golden, f));
    }
  }
}

TYPED_TEST(ExecutorEquivalence, PlainAndTracedMatchLegacy) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 21));
  const auto img = random_image<T>(spec.input, 22);

  const Tensor<T> want = scalar_ref::forward(net, img);
  const RefTrace<T> want_trace = reference_trace(net, img);

  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  RunRequest<T> req;
  req.input = img;
  expect_bits_equal<T>(exec.run(ws, req), want);

  const ActivationCache<T> cache(net.plan(), img);
  ASSERT_EQ(cache.num_layers(), want_trace.acts.size());
  expect_bits_equal<T>(cache.input(), want_trace.input);
  for (std::size_t i = 0; i < cache.num_layers(); ++i)
    expect_bits_equal<T>(cache.act(i), want_trace.acts[i]);
  expect_bits_equal<T>(cache.output(), want);
}

TYPED_TEST(ExecutorEquivalence, FaultyRunsMatchLegacyForAllFaultClasses) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 31));
  const auto img = random_image<T>(spec.input, 32);
  const RefTrace<T> golden = reference_trace(net, img);
  const ActivationCache<T> cache(net.plan(), img);

  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  // Eight trials cover all four fault classes on different MAC layers.
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const AppliedFault f = nth_fault(net, trial);
    const Tensor<T> want = reference_fault(net, golden, f);
    RunRequest<T> req;
    req.cache = &cache;
    req.fault = &f;
    expect_bits_equal<T>(exec.run(ws, req), want);
  }
}

TYPED_TEST(ExecutorEquivalence, NetworkWrappersMatchLegacy) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 41));
  const auto img = random_image<T>(spec.input, 42);

  const Tensor<T> want = scalar_ref::forward(net, img);
  expect_bits_equal<T>(net.forward(img).view(), want);
  EXPECT_EQ(net.classify(img).scores, net.interpret(want).scores);
}

/// A tiny AlexNet-shaped net: a stride-2 padded conv, relu, LRN and a
/// 3x3/2 maxpool (27x27 -> 14x14 -> 6x6), then three 3x3 convs, a 2x2 pool
/// and a classifier.
NetworkSpec alexnet_like_spec() {
  return SpecBuilder("alexnet-like", tensor::chw(3, 27, 27), 5)
      .conv(8, 5, 2, 2).relu().lrn().maxpool(3, 2)
      .conv(12, 3, 1, 1).relu().lrn()
      .conv(12, 3, 1, 1).relu()
      .conv(8, 3, 1, 1).relu().maxpool(2, 2)
      .fc(5).softmax()
      .build();
}

/// Faults of all five classes — MAC, weight, scoped input, systolic column
/// and global buffer — on MAC layer `layer`, each struck at a corner, an
/// edge and the centre element of the tensor it corrupts, with a low and a
/// high bit (both valid for every datapath type).
template <typename T>
std::vector<AppliedFault> placed_faults(const Network<T>& net,
                                        std::size_t layer) {
  const PlanStep<T>& st = net.plan().steps()[layer];
  const tensor::Shape& os = st.out_shape;
  const tensor::Shape& is = st.in_shape;
  const bool fc = st.kernel == StepKernel::kFc;
  const std::size_t steps = st.macs / os.size();
  const std::size_t wsize = net.params()[layer].weights.size();
  const auto at = [](const tensor::Shape& s, std::size_t c, std::size_t y,
                     std::size_t x) { return (c * s.h + y) * s.w + x; };
  // Corner, edge and centre of a CHW tensor: (c, y, x) per place.
  const auto place = [](const tensor::Shape& s, std::size_t p) {
    const std::size_t c[] = {0, s.c / 2, s.c - 1};
    const std::size_t y[] = {0, 0, s.h / 2};
    const std::size_t x[] = {0, s.w / 2, s.w / 2};
    return std::array<std::size_t, 3>{c[p], y[p], x[p]};
  };
  std::vector<AppliedFault> faults;
  for (const int bit : {2, 14}) {
    const fault::FaultOp op = fault::FaultOp::flip(bit);
    for (std::size_t p = 0; p < 3; ++p) {
      const auto [oc, oy, ox] = place(os, p);
      const auto [ic, iy, ix] = place(is, p);
      const std::size_t out_index = at(os, oc, oy, ox);
      const std::size_t out_channel = fc ? out_index : oc;
      const std::size_t step = (p * 7 + 3) % steps;
      AppliedFault f;
      f.layer = layer;

      MacFault mf;
      mf.out_index = out_index;
      mf.step = step;
      mf.site = kMacSites[(p + static_cast<std::size_t>(bit)) % 4];
      mf.op = op;
      f.faults = {};
      f.faults.mac = mf;
      faults.push_back(f);

      WeightFault wf;
      wf.weight_index = (out_channel * steps + step) % wsize;
      wf.op = op;
      f.faults = {};
      f.faults.weight = wf;
      faults.push_back(f);

      ScopedInputFault sf;
      sf.input_index = at(is, ic, iy, ix);
      sf.out_channel = out_channel;
      sf.out_row = oy;
      sf.op = op;
      f.faults = {};
      f.faults.scoped_input = sf;
      faults.push_back(f);

      ColumnFault cf;
      cf.cols = 4;
      cf.col = out_channel % cf.cols;
      cf.first_out = out_index;
      cf.step = step;
      cf.op = op;
      f.faults = {};
      f.faults.column = cf;
      faults.push_back(f);

      AppliedFault gb;
      gb.layer = layer;
      gb.flip_layer_input = true;
      gb.input_index = at(is, ic, iy, ix);
      gb.input_op = op;
      faults.push_back(gb);
    }
  }
  return faults;
}

// Dirty-region replay against the legacy full-tensor reference: for every
// fault class at corner, edge and centre elements of every MAC layer, each
// layer the observer sees is the legacy faulty tensor bit for bit (outside
// the dirty region the executor fills in the golden activation), the
// layers a masked exit skips are golden in the legacy run too, and the
// final output matches. ReplayInfo::macs counts exactly the full suffix in
// a full replay and stays below it for a centre fault on a conv layer.
TYPED_TEST(ExecutorEquivalence, DirtyRegionReplayMatchesLegacyLayerByLayer) {
  using T = TypeParam;
  const auto spec = alexnet_like_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 71));
  const auto img = random_image<T>(spec.input, 72);
  const RefTrace<T> golden = reference_trace(net, img);
  const ActivationCache<T> cache(net.plan(), img);
  const auto& steps = net.plan().steps();
  const std::size_t n = net.num_layers();

  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  std::vector<Tensor<T>> seen(n);
  const LayerObserver<T> observer =
      [&](std::size_t layer, tensor::ConstTensorView<T> act) {
        seen[layer].assign(act);
      };
  std::size_t partial = 0;  // centre conv faults whose replay ran < suffix
  for (const std::size_t layer : net.mac_layers()) {
    std::size_t suffix = 0;
    for (std::size_t i = layer; i < n; ++i) suffix += steps[i].macs;
    const bool conv = steps[layer].kernel == StepKernel::kConv;
    const auto faults = placed_faults(net, layer);
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const AppliedFault& f = faults[k];
      const bool centre = (k / 5) % 3 == 2;
      const auto want = reference_fault_trace(net, golden, f);
      for (const bool early_exit : {true, false}) {
        const std::string what = "layer " + std::to_string(layer) +
                                 " fault " + std::to_string(k) +
                                 (early_exit ? " dirty" : " full");
        for (auto& t : seen) t = Tensor<T>();
        ReplayInfo info;
        RunRequest<T> req;
        req.cache = &cache;
        req.fault = &f;
        req.observer = &observer;
        req.early_exit = early_exit;
        req.replay = &info;
        const auto out = exec.run(ws, req);
        SCOPED_TRACE(what);
        expect_bits_equal<T>(out, want.back());
        for (std::size_t i = layer; i < n; ++i) {
          if (seen[i].size() != 0) {
            expect_bits_equal<T>(seen[i].view(), want[i]);
          } else {
            ASSERT_TRUE(info.masked && i > info.masked_at) << "layer " << i;
            expect_bits_equal<T>(golden.acts[i].view(), want[i]);
          }
        }
        if (info.masked)
          expect_bits_equal<T>(golden.acts[info.masked_at].view(),
                               want[info.masked_at]);
        // A patched fault layer's own recompute is not counted.
        const std::size_t patched = f.flip_layer_input ? 0 : steps[layer].macs;
        if (!early_exit) {
          EXPECT_EQ(info.macs, suffix - patched);
        } else if (conv && centre) {
          EXPECT_LT(info.macs, suffix);
          ++partial;
        }
      }
    }
  }
  EXPECT_GT(partial, 0u);
}

// A single workspace serving 100 consecutive faulty runs (mixed fault
// classes, mixed layers, two different inputs) must leave no stale data
// behind: every run is compared bit-for-bit against a fresh legacy run.
TEST(ExecutorWorkspaceReuse, HundredFaultyRunsNoStaleData) {
  using T = numeric::Half;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 51));
  const auto img0 = random_image<T>(spec.input, 52);
  const auto img1 = random_image<T>(spec.input, 53);
  const RefTrace<T> goldens[2] = {reference_trace(net, img0),
                                     reference_trace(net, img1)};
  const ActivationCache<T> caches[2] = {{net.plan(), img0},
                                        {net.plan(), img1}};

  const Executor<T> exec(net.plan());
  Workspace<T> ws;  // deliberately unsized: first run binds it
  for (std::size_t trial = 0; trial < 100; ++trial) {
    const AppliedFault f = nth_fault(net, trial);
    const Tensor<T> want = reference_fault(net, goldens[trial % 2], f);
    RunRequest<T> req;
    req.cache = &caches[trial % 2];
    req.fault = &f;
    const auto got = exec.run(ws, req);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(numeric::numeric_traits<T>::to_bits(got[i]),
                numeric::numeric_traits<T>::to_bits(want[i]))
          << "trial " << trial << " element " << i;
  }
}

// A callback that throws midway still leaves the plan's packed copy
// coherent with the weights it changed.
TEST(ExecutorWeightUpdates, RetakeAlsoWhenTheCallbackThrows) {
  using T = float;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 101));
  const auto img = random_image<T>(spec.input, 102);
  const Tensor<T> before = scalar_ref::forward(net, img);
  EXPECT_THROW(net.update_params([&](auto layers) {
                 for (auto& w : layers[net.mac_layers()[0]].weights) w = -w;
                 throw std::runtime_error("midway");
               }),
               std::runtime_error);
  const Tensor<T> want = scalar_ref::forward(net, img);
  EXPECT_FALSE(tensor::bitwise_equal(want, before));
  expect_bits_equal<T>(net.forward(img).view(), want);
}

// The plan points into the network's parameter records, and a Network move
// keeps their storage (Campaign moves the network dnn::instantiate returns):
// a moved-to network, and a cache built on its plan before the move, run
// the weights that were loaded.
TEST(ExecutorWeightUpdates, PlanWeightPointersSurviveNetworkMoves) {
  using T = numeric::Half;
  const auto spec = convnet_spec();
  Network<T> net = instantiate<T>(spec, random_blob(spec, 111));
  const auto img = random_image<T>(spec.input, 112);
  const Tensor<T> want = scalar_ref::forward(net, img);
  const ActivationCache<T> cache(net.plan(), img);
  Network<T> moved(std::move(net));
  expect_bits_equal<T>(moved.forward(img).view(), want);
  Network<T> assigned(spec);
  assigned = std::move(moved);
  expect_bits_equal<T>(assigned.forward(img).view(), want);
  expect_bits_equal<T>(cache.output(), want);
  for (const std::size_t li : assigned.mac_layers()) {
    EXPECT_EQ(assigned.plan().steps()[li].w,
              assigned.params()[li].weights.data());
    EXPECT_EQ(assigned.plan().steps()[li].bias,
              assigned.params()[li].biases.data());
  }
  // A fault patched through the moved plan reads the loaded weights too.
  const AppliedFault f = nth_fault(assigned, 1);
  Workspace<T> ws(assigned.plan());
  RunRequest<T> req;
  req.cache = &cache;
  req.fault = &f;
  expect_bits_equal<T>(Executor<T>(assigned.plan()).run(ws, req),
                       reference_fault(assigned, reference_trace(assigned, img),
                                       f));
}

// The plan re-takes each fixed-point MAC step's act_limit (the weight-sum
// bound of kernels.h) together with its packed copy: raw-extreme weights
// set through update_params lower the first MAC layer's limit to what
// fixed_act_limit gives for them and leave the other layers' alone.
TEST(ExecutorWeightUpdates, ActLimitIsRetakenWithTheWeights) {
  using T = numeric::Fx32r10;
  if (kernels::kernel_set<T>("avx512") == nullptr)
    GTEST_SKIP() << "avx512 kernels not available on this build/CPU";
  const kernels::ModeGuard guard;
  ASSERT_TRUE(kernels::set_active_mode("avx512"));
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 81));
  const auto limits = [&] {
    std::vector<std::int64_t> v;
    for (const auto& st : net.plan().steps()) {
      if (st.kernel == StepKernel::kConv) v.push_back(st.conv.act_limit);
      if (st.kernel == StepKernel::kFc) v.push_back(st.fc.act_limit);
    }
    return v;
  };
  const std::vector<std::int64_t> before = limits();
  ASSERT_EQ(before.size(), net.mac_layers().size());
  ASSERT_GT(before[0], 0);
  const std::size_t first = net.mac_layers()[0];
  net.update_params([&](auto layers) {
    auto& w = layers[first].weights;
    w[0] = T::max_value();
    w[w.size() - 1] = T::min_value();
  });
  const std::vector<std::int64_t> after = limits();
  const auto& st = net.plan().steps()[first];
  EXPECT_LT(after[0], before[0]);
  EXPECT_EQ(after[0], kernels::fixed_act_limit(st.w, st.conv.out_c,
                                               st.conv.steps()));
  for (std::size_t i = 1; i < after.size(); ++i)
    EXPECT_EQ(after[i], before[i]) << "MAC layer " << i;
}

// One plan shared by four threads, each binding its own workspace and
// running incremental faulty replays against one shared cache: every output
// equals the serial run's. CI also runs this under ThreadSanitizer.
TEST(ExecutorThreads, SharedPlanWorkspacePerThreadMatchesSerial) {
  using T = numeric::Half;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 91));
  const auto img = random_image<T>(spec.input, 92);
  const ActivationCache<T> cache(net.plan(), img);
  const Executor<T> exec(net.plan());
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kTrials = 24;
  const auto run_trials = [&](std::size_t first, std::vector<Tensor<T>>& out) {
    Workspace<T> ws(net.plan());
    for (std::size_t k = 0; k < kTrials; ++k) {
      const AppliedFault f = nth_fault(net, first + k);
      RunRequest<T> req;
      req.cache = &cache;
      req.fault = &f;
      req.early_exit = true;
      out[k].assign(exec.run(ws, req));
    }
  };
  std::vector<std::vector<Tensor<T>>> serial(
      kThreads, std::vector<Tensor<T>>(kTrials));
  auto parallel = serial;
  for (std::size_t t = 0; t < kThreads; ++t)
    run_trials(t * kTrials, serial[t]);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(run_trials, t * kTrials, std::ref(parallel[t]));
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t k = 0; k < kTrials; ++k)
      EXPECT_TRUE(tensor::bitwise_equal(parallel[t][k], serial[t][k]))
          << "thread " << t << " trial " << k;
}

// The observer surfaces every recomputed layer exactly once, in order,
// and its views must alias live arena contents (spot-check: the final
// observed view equals the returned output).
TEST(ExecutorObserver, SeesRecomputedLayersInOrder) {
  using T = float;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 61));
  const auto img = random_image<T>(spec.input, 62);
  const ActivationCache<T> golden(net.plan(), img);

  const AppliedFault f = nth_fault(net, 5);  // second MAC layer, weight fault
  std::vector<std::size_t> seen;
  Tensor<T> last;
  const LayerObserver<T> observer =
      [&](std::size_t layer, tensor::ConstTensorView<T> act) {
        seen.push_back(layer);
        last.assign(act);
      };
  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  RunRequest<T> req;
  req.cache = &golden;
  req.fault = &f;
  req.observer = &observer;  // no early exit: every later layer replays
  const auto out = exec.run(ws, req);

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), f.layer);
  EXPECT_EQ(seen.back(), net.num_layers() - 1);
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  expect_bits_equal<T>(out, last);
}

}  // namespace
}  // namespace dnnfi::dnn
