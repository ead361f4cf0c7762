// google-benchmark microbenchmarks: inference latency per network and data
// type, injection fast-path overhead (activation-cache reuse), and campaign
// throughput. These quantify the engineering claims of the harness itself
// rather than a paper table.
//
// Beyond the google-benchmark tables, the binary runs a dedicated
// counting-allocator measurement of the compiled-plan engine and writes
// BENCH_perf_micro.json (ns/inference, ns/trial, allocations/trial, peak
// live-heap growth of the streaming campaign path) into the results
// directory. It exits nonzero if the faulty hot path performs any heap
// allocation per trial after warm-up, or if the streaming run_shard path's
// peak live heap grows with trial count — the engine's zero-alloc and the
// accumulator's flat-memory contracts are enforced here, not just
// documented.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define DNNFI_HAVE_MALLOC_USABLE 1
#else
#define DNNFI_HAVE_MALLOC_USABLE 0
#endif

#include "bench_util.h"
#include "dnnfi/common/atomic_file.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/sampler.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new/delete in the process routes through
// malloc/free with an atomic tally of calls and (where malloc_usable_size is
// available) live bytes + peak live bytes. Relaxed ordering is fine — the
// measured loops are single-threaded and the counters are only read at
// section edges.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live{0};

inline void track_alloc(void* p) {
#if DNNFI_HAVE_MALLOC_USABLE
  const auto sz = static_cast<std::uint64_t>(malloc_usable_size(p));
  const std::uint64_t live =
      g_live_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  std::uint64_t peak = g_peak_live.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_live.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
  }
#else
  (void)p;
#endif
}

inline void track_free(void* p) {
#if DNNFI_HAVE_MALLOC_USABLE
  if (p)
    g_live_bytes.fetch_sub(
        static_cast<std::uint64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
#else
  (void)p;
#endif
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    track_alloc(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    track_alloc(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC flags free() inside operator delete as a new/free mismatch; every
// operator new above routes through malloc/aligned_alloc, so it is not one.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
#pragma GCC diagnostic pop

using namespace dnnfi;
using namespace dnnfi::benchutil;

namespace {

/// Cached contexts so model loading happens once per process.
const NetContext& ctx_for(NetworkId id) {
  static std::map<NetworkId, NetContext> cache;
  auto it = cache.find(id);
  if (it == cache.end()) it = cache.emplace(id, load_net(id, 2)).first;
  return it->second;
}

template <typename T>
void run_inference(benchmark::State& state, NetworkId id) {
  const NetContext& ctx = ctx_for(id);
  const auto net = dnn::instantiate<T>(ctx.model.spec, ctx.model.blob);
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());
  const auto input = tensor::convert<T>(ctx.inputs[0].image);
  dnn::RunRequest<T> req;
  req.input = input;
  for (auto _ : state) {
    auto out = exec.run(ws, req);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}

void BM_Inference_ConvNet_Float(benchmark::State& s) {
  run_inference<float>(s, NetworkId::kConvNet);
}
void BM_Inference_ConvNet_Half(benchmark::State& s) {
  run_inference<numeric::Half>(s, NetworkId::kConvNet);
}
void BM_Inference_ConvNet_Fx16(benchmark::State& s) {
  run_inference<numeric::Fx16r10>(s, NetworkId::kConvNet);
}
void BM_Inference_AlexNetS_Float(benchmark::State& s) {
  run_inference<float>(s, NetworkId::kAlexNetS);
}
void BM_Inference_NiNS_Float(benchmark::State& s) {
  run_inference<float>(s, NetworkId::kNiNS);
}
BENCHMARK(BM_Inference_ConvNet_Float)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Inference_ConvNet_Half)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Inference_ConvNet_Fx16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Inference_AlexNetS_Float)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Inference_NiNS_Float)->Unit(benchmark::kMillisecond);

/// One faulty inference on the compiled engine, replaying every layer after
/// the fault against the input's activation cache (no early exit).
void BM_Injection_FastPath(benchmark::State& state) {
  const NetContext& ctx = ctx_for(NetworkId::kConvNet);
  const auto net =
      dnn::instantiate<numeric::Half>(ctx.model.spec, ctx.model.blob);
  const dnn::Executor<numeric::Half> exec(net.plan());
  dnn::Workspace<numeric::Half> ws(net.plan());
  const auto input = tensor::convert<numeric::Half>(ctx.inputs[0].image);
  const dnn::ActivationCache<numeric::Half> golden(net.plan(), input);
  fault::Sampler sampler(ctx.model.spec, numeric::DType::kFloat16);
  Rng rng(1);
  for (auto _ : state) {
    const auto f = sampler.sample(fault::SiteClass::kDatapathLatch, rng);
    auto out = fault::inject(exec, ws, net.mac_layers(), golden, f,
                             /*early_exit=*/false);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Injection_FastPath)->Unit(benchmark::kMillisecond);

void BM_Campaign_100Trials(benchmark::State& state) {
  const NetContext& ctx = ctx_for(NetworkId::kConvNet);
  fault::Campaign campaign(ctx.model.spec, ctx.model.blob,
                           numeric::DType::kFloat16, ctx.inputs);
  for (auto _ : state) {
    fault::CampaignOptions opt;
    opt.trials = 100;
    opt.seed = static_cast<std::uint64_t>(state.iterations());
    auto r = campaign.run(opt);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_Campaign_100Trials)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Counting-allocator section. Single-threaded on ConvNet/Half, the campaign's
// default datapath: measures the compiled engine directly and enforces the
// zero-allocation contract of the faulty hot path.
// ---------------------------------------------------------------------------

struct AllocatorReport {
  double ns_per_inference = 0;
  double ns_per_trial = 0;
  double allocations_per_trial = 0;
  double ns_per_trial_incremental = 0;
  double allocations_per_trial_incremental = 0;
  std::size_t trials = 0;
};

AllocatorReport measure_hot_path() {
  using T = numeric::Half;
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kWarmup = 32;
  constexpr std::size_t kTrials = 1000;
  constexpr std::size_t kInferences = 200;

  const NetContext& ctx = ctx_for(NetworkId::kConvNet);
  const auto net = dnn::instantiate<T>(ctx.model.spec, ctx.model.blob);
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());
  const auto input = tensor::convert<T>(ctx.inputs[0].image);
  const dnn::ActivationCache<T> cache(net.plan(), input);

  // Pre-sample descriptors over every site class so the measured loop covers
  // all four fault-lowering paths without touching the sampler.
  fault::Sampler sampler(ctx.model.spec, numeric::DType::kFloat16);
  Rng rng(7);
  std::vector<fault::FaultDescriptor> faults;
  faults.reserve(256);
  for (std::size_t i = 0; i < 256; ++i)
    faults.push_back(sampler.sample(
        fault::kAllSiteClasses[i % fault::kAllSiteClasses.size()], rng));

  AllocatorReport r;
  r.trials = kTrials;

  // Plain inference timing (steady state, workspace warm).
  for (std::size_t i = 0; i < 8; ++i) {
    dnn::RunRequest<T> req;
    req.input = input;
    benchmark::DoNotOptimize(exec.run(ws, req));
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kInferences; ++i) {
    dnn::RunRequest<T> req;
    req.input = input;
    benchmark::DoNotOptimize(exec.run(ws, req));
  }
  r.ns_per_inference =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()) /
      static_cast<double>(kInferences);

  // Full-replay faulty path (every layer after the fault re-executes):
  // warm-up, then the measured window.
  for (std::size_t i = 0; i < kWarmup; ++i)
    benchmark::DoNotOptimize(fault::inject(exec, ws, net.mac_layers(), cache,
                                           faults[i % faults.size()],
                                           /*early_exit=*/false));

  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < kTrials; ++i)
    benchmark::DoNotOptimize(fault::inject(exec, ws, net.mac_layers(), cache,
                                           faults[i % faults.size()],
                                           /*early_exit=*/false));
  const auto t2 = Clock::now();
  const std::uint64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  r.ns_per_trial =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
              .count()) /
      static_cast<double>(kTrials);
  r.allocations_per_trial =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(kTrials);

  // Incremental-replay hot path: the same trials with masked-fault early
  // exit. Same zero-allocation contract as the full replay — the
  // ActivationCache is immutable and replays touch only workspace slots.
  for (std::size_t i = 0; i < kWarmup; ++i)
    benchmark::DoNotOptimize(fault::inject(exec, ws, net.mac_layers(), cache,
                                           faults[i % faults.size()]));
  const std::uint64_t inc_allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t3 = Clock::now();
  for (std::size_t i = 0; i < kTrials; ++i)
    benchmark::DoNotOptimize(fault::inject(exec, ws, net.mac_layers(), cache,
                                           faults[i % faults.size()]));
  const auto t4 = Clock::now();
  const std::uint64_t inc_allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);
  r.ns_per_trial_incremental =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t4 - t3)
              .count()) /
      static_cast<double>(kTrials);
  r.allocations_per_trial_incremental =
      static_cast<double>(inc_allocs_after - inc_allocs_before) /
      static_cast<double>(kTrials);
  return r;
}

// ---------------------------------------------------------------------------
// Streaming flat-memory section: the run_shard path must hold peak live heap
// roughly constant as trial count grows (the aggregates are O(blocks), the
// workers are O(pool)). Measured as peak-live growth over the campaign call
// at 256 vs 2048 trials; the delta must stay within a small slack.
// ---------------------------------------------------------------------------

struct StreamingReport {
  std::size_t small_trials = 256;
  std::size_t large_trials = 2048;
  std::uint64_t peak_growth_small = 0;  ///< bytes
  std::uint64_t peak_growth_large = 0;  ///< bytes
  bool supported = DNNFI_HAVE_MALLOC_USABLE != 0;
};

std::uint64_t measure_streaming_peak(const fault::Campaign& campaign,
                                     std::size_t trials) {
  ThreadPool serial(0);
  fault::CampaignOptions opt;
  opt.trials = trials;
  opt.seed = 99;
  opt.record_block_distances = true;
  opt.pool = &serial;
  const std::uint64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live.store(before, std::memory_order_relaxed);
  auto res = campaign.run_shard(opt, fault::ShardSpec{});
  benchmark::DoNotOptimize(res);
  const std::uint64_t peak = g_peak_live.load(std::memory_order_relaxed);
  return peak > before ? peak - before : 0;
}

StreamingReport measure_streaming_memory() {
  StreamingReport r;
  if (!r.supported) return r;
  const NetContext& ctx = ctx_for(NetworkId::kConvNet);
  const fault::Campaign campaign(ctx.model.spec, ctx.model.blob,
                                 numeric::DType::kFloat16, ctx.inputs);
  // Warm-up run so one-time lazy state (sampler tables, etc.) is excluded.
  (void)measure_streaming_peak(campaign, 64);
  r.peak_growth_small = measure_streaming_peak(campaign, r.small_trials);
  r.peak_growth_large = measure_streaming_peak(campaign, r.large_trials);
  return r;
}

// ---------------------------------------------------------------------------
// Per-kernel GFLOP/s: every registered kernel set (scalar reference, avx2,
// avx512 where the CPU has them) on fixed conv / fully-connected
// shapes, for float, FLOAT16, double and 32b_rb10, driven through the
// kernels API directly — a set's packed layout is interleaved once outside
// the timed loop, as Workspace::bind does (fixed-point sets read row-major
// weights and pack nothing).
// ---------------------------------------------------------------------------

struct KernelCell {
  std::string dtype;
  std::string set;
  std::string op;  ///< "conv" or "fc"
  double gflops = 0;
};

template <typename Fn>
double time_gflops(double flops_per_call, Fn&& call) {
  using Clock = std::chrono::steady_clock;
  call();  // warm
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) call();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs >= 0.05 || reps >= (std::size_t{1} << 20))
      return flops_per_call * static_cast<double>(reps) / secs / 1e9;
    reps *= 2;
  }
}

template <typename T>
void bench_kernel_sets(const char* dtype, std::vector<KernelCell>& cells) {
  namespace k = dnn::kernels;
  const k::ConvGeom g{16, 16, 16, 32, 16, 16, 3, 1, 1};
  const k::FcGeom fg{1024, 1024};
  auto val = [](std::size_t i) {
    return numeric::numeric_traits<T>::from_double(
        0.03125 * static_cast<double>(i % 64) - 1.0);
  };
  std::vector<T> cin(g.in_c * g.in_h * g.in_w), cw(g.out_c * g.steps()),
      cbias(g.out_c), cout(g.out_c * g.out_h * g.out_w);
  std::vector<T> fin(fg.in), fw(fg.out * fg.in), fbias(fg.out), fout(fg.out);
  for (std::size_t i = 0; i < cin.size(); ++i) cin[i] = val(i);
  for (std::size_t i = 0; i < cw.size(); ++i) cw[i] = val(i + 7);
  for (std::size_t i = 0; i < cbias.size(); ++i) cbias[i] = val(i + 3);
  for (std::size_t i = 0; i < fin.size(); ++i) fin[i] = val(i);
  for (std::size_t i = 0; i < fw.size(); ++i) fw[i] = val(i + 11);
  for (std::size_t i = 0; i < fbias.size(); ++i) fbias[i] = val(i + 5);
  const double conv_flops =
      2.0 * static_cast<double>(cout.size() * g.steps());
  const double fc_flops = 2.0 * static_cast<double>(fg.in * fg.out);

  for (const char* name : k::registered_names<T>()) {
    const k::KernelSet<T>* ks = k::kernel_set<T>(name);
    if (ks == nullptr) continue;
    std::vector<T> cpacked(
        k::packed_elems(g.out_c, g.steps(), ks->pack_lanes));
    std::vector<T> fpacked(k::packed_elems(fg.out, fg.in, ks->pack_lanes));
    if (ks->pack_lanes > 0) {
      k::pack_rows(cw.data(), g.out_c, g.steps(), ks->pack_lanes,
                   cpacked.data());
      k::pack_rows(fw.data(), fg.out, fg.in, ks->pack_lanes, fpacked.data());
    }
    const T* cp = cpacked.empty() ? nullptr : cpacked.data();
    const T* fp = fpacked.empty() ? nullptr : fpacked.data();
    KernelCell conv{dtype, name, "conv", 0};
    conv.gflops = time_gflops(conv_flops, [&] {
      ks->conv(g, g.full(), cin.data(), cw.data(), cp, cbias.data(),
               cout.data());
      benchmark::DoNotOptimize(cout.data());
    });
    cells.push_back(conv);
    KernelCell fc{dtype, name, "fc", 0};
    fc.gflops = time_gflops(fc_flops, [&] {
      ks->fc(fg, fin.data(), fw.data(), fp, fbias.data(), fout.data());
      benchmark::DoNotOptimize(fout.data());
    });
    cells.push_back(fc);
  }
}

std::vector<KernelCell> measure_kernel_gflops() {
  std::vector<KernelCell> cells;
  bench_kernel_sets<float>("float", cells);
  bench_kernel_sets<numeric::Half>("float16", cells);
  bench_kernel_sets<double>("double", cells);
  bench_kernel_sets<numeric::Fx32r10>("32b_rb10", cells);
  return cells;
}

// ---------------------------------------------------------------------------
// Per-layer-kind wall-time profile of the fault-free forward pass: each plan
// step is timed individually (the steps are microseconds-scale, so the
// clock-read overhead is in the noise) and aggregated by LayerKind. This is
// the Amdahl accounting for the kernel work: it shows where a forward pass
// actually spends its time once conv/FC are vectorized.
// ---------------------------------------------------------------------------

struct LayerKindCost {
  std::string network;
  std::string dtype;
  std::string kind;
  double ns_per_forward = 0;
  double share = 0;  ///< fraction of that network+dtype's total
};

template <typename T>
void profile_layer_kinds(const char* netname, const char* dtype, NetworkId id,
                         std::vector<LayerKindCost>& out) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kWarm = 8;
  constexpr std::size_t kReps = 64;
  const NetContext& ctx = ctx_for(id);
  const auto net = dnn::instantiate<T>(ctx.model.spec, ctx.model.blob);
  const auto& plan = net.plan();
  dnn::Workspace<T> ws(plan);
  const auto input = tensor::convert<T>(ctx.inputs[0].image);
  const auto& steps = plan.steps();
  std::map<dnn::LayerKind, double> acc;
  const auto drive = [&](bool timed) {
    tensor::ConstTensorView<T> cur = input.view();
    unsigned parity = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      tensor::TensorView<T> o = ws.out_buffer(parity, steps[i].out_shape);
      const auto t0 = Clock::now();
      plan.exec_step(i, cur, o, ws.packed_data());
      if (timed)
        acc[steps[i].layer->kind()] += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count());
      cur = o;
      parity ^= 1U;
    }
    benchmark::DoNotOptimize(cur);
  };
  for (std::size_t i = 0; i < kWarm; ++i) drive(false);
  for (std::size_t i = 0; i < kReps; ++i) drive(true);
  double total = 0;
  for (const auto& [kind, ns] : acc) total += ns;
  for (const auto& [kind, ns] : acc)
    out.push_back({netname, dtype, dnn::layer_kind_name(kind),
                   ns / static_cast<double>(kReps),
                   total > 0 ? ns / total : 0});
}

std::vector<LayerKindCost> measure_layer_profile() {
  std::vector<LayerKindCost> cells;
  profile_layer_kinds<numeric::Half>("AlexNet-S", "float16",
                                     NetworkId::kAlexNetS, cells);
  profile_layer_kinds<float>("AlexNet-S", "float", NetworkId::kAlexNetS,
                             cells);
  profile_layer_kinds<numeric::Half>("ConvNet", "float16", NetworkId::kConvNet,
                                     cells);
  return cells;
}

void write_json(const AllocatorReport& r, const StreamingReport& s,
                const std::vector<KernelCell>& kc,
                const std::vector<LayerKindCost>& lp, const std::string& path) {
  std::ostringstream out;
  out << "{\n"
      << "  \"network\": \"ConvNet\",\n"
      << "  \"datapath\": \"float16\",\n"
      << "  \"trials\": " << r.trials << ",\n"
      << "  \"ns_per_inference\": " << r.ns_per_inference << ",\n"
      << "  \"ns_per_trial\": " << r.ns_per_trial << ",\n"
      << "  \"allocations_per_trial\": " << r.allocations_per_trial << ",\n"
      << "  \"ns_per_trial_incremental\": " << r.ns_per_trial_incremental
      << ",\n"
      << "  \"allocations_per_trial_incremental\": "
      << r.allocations_per_trial_incremental << ",\n"
      << "  \"streaming_peak_bytes_256\": " << s.peak_growth_small << ",\n"
      << "  \"streaming_peak_bytes_2048\": " << s.peak_growth_large << ",\n";
  const auto prof = dnn::kernels::kernel_profile();
  out << "  \"kernels\": {\"mode\": \"" << prof.mode
      << "\", \"cpu_avx2\": " << (prof.cpu_avx2 ? "true" : "false")
      << ", \"cpu_avx512\": " << (prof.cpu_avx512 ? "true" : "false")
      << ", \"cpu_avx512fp16\": "
      << (prof.cpu_avx512fp16 ? "true" : "false")
      << ", \"cpu_f16c\": " << (prof.cpu_f16c ? "true" : "false")
      << ", \"f16c_compiled\": " << (prof.f16c_compiled ? "true" : "false")
      << ", \"active_float\": \"" << prof.active_float
      << "\", \"active_float16\": \"" << prof.active_float16 << "\"},\n"
      << "  \"kernel_gflops\": [\n";
  for (std::size_t i = 0; i < kc.size(); ++i) {
    const KernelCell& c = kc[i];
    out << "    {\"dtype\": \"" << c.dtype << "\", \"set\": \"" << c.set
        << "\", \"op\": \"" << c.op << "\", \"gflops\": " << c.gflops
        << "}" << (i + 1 < kc.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"layer_profile\": [\n";
  for (std::size_t i = 0; i < lp.size(); ++i) {
    const LayerKindCost& c = lp[i];
    out << "    {\"network\": \"" << c.network << "\", \"dtype\": \""
        << c.dtype << "\", \"kind\": \"" << c.kind
        << "\", \"ns_per_forward\": " << c.ns_per_forward
        << ", \"share\": " << c.share << "}"
        << (i + 1 < lp.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!dnnfi::write_file_atomic(path, out.str()))
    std::cerr << "warning: could not write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const AllocatorReport r = measure_hot_path();
  const StreamingReport s = measure_streaming_memory();
  const std::vector<KernelCell> kc = measure_kernel_gflops();
  const std::vector<LayerKindCost> lp = measure_layer_profile();
  std::filesystem::create_directories(results_dir());
  const std::string json = results_dir() + "/BENCH_perf_micro.json";
  write_json(r, s, kc, lp, json);
  std::printf("\nper-kernel throughput (GFLOP/s, fixed conv 32c16x16k3 / fc "
              "1024x1024):\n");
  for (const KernelCell& c : kc)
    std::printf("  %-8s %-13s %-4s %8.2f\n", c.dtype.c_str(), c.set.c_str(),
                c.op.c_str(), c.gflops);
  std::printf("\nper-layer-kind wall time of a fault-free forward:\n");
  for (const LayerKindCost& c : lp)
    std::printf("  %-10s %-8s %-14s %10.0f ns  %5.1f%%\n", c.network.c_str(),
                c.dtype.c_str(), c.kind.c_str(), c.ns_per_forward,
                100.0 * c.share);
  std::printf(
      "\ncompiled-engine hot path (ConvNet, float16, counting allocator):\n"
      "  ns/inference:                    %.0f\n"
      "  ns/trial (full replay):          %.0f\n"
      "  allocations/trial:               %g\n"
      "  ns/trial (incremental replay):   %.0f\n"
      "  allocations/trial (incremental): %g\n"
      "streaming run_shard peak live-heap growth:\n"
      "  %zu trials:  %llu bytes\n"
      "  %zu trials: %llu bytes\n"
      "[json] %s\n",
      r.ns_per_inference, r.ns_per_trial, r.allocations_per_trial,
      r.ns_per_trial_incremental, r.allocations_per_trial_incremental,
      s.small_trials,
      static_cast<unsigned long long>(s.peak_growth_small), s.large_trials,
      static_cast<unsigned long long>(s.peak_growth_large), json.c_str());
  bool fail = false;
  if (r.allocations_per_trial > 0) {
    std::fprintf(stderr,
                 "FAIL: faulty hot path allocated %g times per trial; the "
                 "zero-allocation contract is broken\n",
                 r.allocations_per_trial);
    fail = true;
  }
  if (r.allocations_per_trial_incremental > 0) {
    std::fprintf(stderr,
                 "FAIL: incremental-replay hot path allocated %g times per "
                 "trial; the zero-allocation contract is broken\n",
                 r.allocations_per_trial_incremental);
    fail = true;
  }
  // 8x the trials must not cost more than a small fixed slack of extra peak
  // heap: the streaming path's memory is flat in trial count.
  constexpr std::uint64_t kFlatSlackBytes = 256 * 1024;
  if (s.supported &&
      s.peak_growth_large > s.peak_growth_small + kFlatSlackBytes) {
    std::fprintf(stderr,
                 "FAIL: streaming campaign peak heap grew from %llu to %llu "
                 "bytes between %zu and %zu trials; the flat-memory "
                 "contract is broken\n",
                 static_cast<unsigned long long>(s.peak_growth_small),
                 static_cast<unsigned long long>(s.peak_growth_large),
                 s.small_trials, s.large_trials);
    fail = true;
  }
  return fail ? 1 : 0;
}
