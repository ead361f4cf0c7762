// Campaign throughput with and without incremental fault replay.
//
// For AlexNet-S and ConvNet at FLOAT16 and FLOAT, plus AlexNet-S at the
// paper's 32b_rb10 fixed point (all datapath-latch campaigns) and AlexNet-S
// FLOAT16 under global-buffer strikes, runs the same campaign
// twice — full replay (--no-incremental semantics) and incremental replay
// (cache seeding, dirty-region replay, masked-fault early exit) — and
// reports trials/s for each, the speedup, and the masked-exit rate. The two runs are asserted
// byte-identical at the aggregate level before any timing is reported: a
// speedup that changed results would be a bug, not a win.
//
// Writes BENCH_campaign_throughput.json into the results directory. With
// --check, exits nonzero if incremental replay is slower than full replay
// on any cell (the nightly smoke gate).
//
// Alongside the measured rates, each network row carries a static estimate
// of the replayed-MAC fraction: with faults sampled MAC-uniformly, the
// expected fraction of network MACs a replay starting at the fault layer
// executes, from accel::analyze_range — the arithmetic incremental replay
// saves before the early exit saves anything at all. Next to it, the
// measured fraction: the mean ReplayInfo::macs / network MACs of the
// cell's own fault draws replayed incrementally, i.e. what dirty regions
// and early exit together leave to compute.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dnnfi/accel/dataflow.h"
#include "dnnfi/common/atomic_file.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/sampler.h"

using namespace dnnfi;
using namespace dnnfi::benchutil;

namespace {

struct Cell {
  std::string network;
  std::string dtype;
  std::string site;
  double full_tps = 0;
  double incremental_tps = 0;
  double speedup = 0;
  double masked_rate = 0;
  double suffix_mac_fraction = 0;  ///< static replay-cost estimate
  double replay_mac_fraction = 0;  ///< measured: mean ReplayInfo::macs share
  double scalar_tps = 0;       ///< incremental replay, scalar kernels forced
  double kernel_speedup = 0;   ///< incremental_tps / scalar_tps
};

/// Expected fraction of network MACs a replay starting at the fault layer
/// executes, with fault sites sampled proportional to per-layer MACs:
/// sum_f (macs_f / total) * (macs in [f, end) / total).
double expected_suffix_mac_fraction(const dnn::NetworkSpec& spec) {
  const auto fp = accel::analyze(spec);
  const double total = static_cast<double>(accel::total_macs(fp));
  const std::size_t n = spec.layers.size();
  double acc = 0;
  for (const auto& f : fp) {
    const double suffix = static_cast<double>(
        accel::macs_in_range(fp, f.layer_index, n));
    acc += (static_cast<double>(f.macs) / total) * (suffix / total);
  }
  return acc;
}

/// Mean ReplayInfo::macs / network MACs over `trials` faults of class
/// `site` drawn as a campaign draws them (trial t: derive_stream(seed, t),
/// input t % inputs), each replayed incrementally.
double measured_replay_mac_fraction(const NetContext& ctx, numeric::DType dt,
                                    fault::SiteClass site,
                                    std::uint64_t seed, std::size_t trials) {
  return numeric::dispatch_dtype(dt, [&]<typename T>() {
    const dnn::Network<T> net =
        dnn::instantiate<T>(ctx.model.spec, ctx.model.blob);
    const fault::Sampler sampler(ctx.model.spec, dt);
    std::vector<dnn::ActivationCache<T>> caches;
    caches.reserve(ctx.inputs.size());
    for (const dnn::Example& ex : ctx.inputs)
      caches.emplace_back(net.plan(), tensor::convert<T>(ex.image));
    const dnn::Executor<T> exec(net.plan());
    dnn::Workspace<T> ws(net.plan());
    dnn::ReplayInfo info;
    double macs = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      Rng rng = derive_stream(seed, t);
      const fault::FaultDescriptor fd = sampler.sample(site, rng);
      (void)fault::inject(exec, ws, net.mac_layers(), caches[t % caches.size()],
                          fd, /*early_exit=*/true, &info);
      macs += static_cast<double>(info.macs);
    }
    return macs / static_cast<double>(trials) /
           static_cast<double>(net.plan().total_macs());
  });
}

struct TimedRun {
  double tps = 0;
  fault::ShardResult result;
};

TimedRun timed_run(const fault::Campaign& campaign, fault::CampaignOptions opt,
                   bool incremental) {
  opt.incremental_replay = incremental;
  const auto t0 = std::chrono::steady_clock::now();
  TimedRun r;
  r.result = campaign.run_shard(opt, fault::ShardSpec{});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.tps = secs > 0 ? static_cast<double>(opt.trials) / secs : 0;
  return r;
}

Cell measure(const NetContext& ctx, numeric::DType dt, fault::SiteClass site,
             std::size_t trials) {
  fault::Campaign campaign(ctx.model.spec, ctx.model.blob, dt, ctx.inputs);
  fault::CampaignOptions opt;
  opt.trials = trials;
  opt.seed = 2017;
  opt.site = site;

  // Warm-up (thread pool spin-up, lazy tables) outside the timed windows.
  {
    fault::CampaignOptions warm = opt;
    warm.trials = std::min<std::size_t>(32, trials);
    (void)campaign.run_shard(warm, fault::ShardSpec{});
  }

  const TimedRun full = timed_run(campaign, opt, /*incremental=*/false);
  const TimedRun inc = timed_run(campaign, opt, /*incremental=*/true);
  if (full.result.acc.bytes() != inc.result.acc.bytes()) {
    std::cerr << "FATAL: incremental and full replay disagree on "
              << ctx.name << " " << numeric::dtype_name(dt)
              << " — refusing to report timings for wrong results\n";
    std::exit(1);
  }

  // Kernel-engine before/after: the same campaign with the scalar reference
  // kernels forced (set_active_mode affects the plans the new Campaign
  // builds). Every kernel set is bit-identical to scalar, so the scalar run
  // must produce byte-identical TrialRecords.
  const std::string prev_mode = dnn::kernels::kernel_profile().mode;
  TimedRun scalar_inc;
  {
    dnn::kernels::set_active_mode("scalar");
    fault::Campaign scalar_campaign(ctx.model.spec, ctx.model.blob, dt,
                                    ctx.inputs);
    fault::CampaignOptions warm = opt;
    warm.trials = std::min<std::size_t>(32, trials);
    (void)scalar_campaign.run_shard(warm, fault::ShardSpec{});
    scalar_inc = timed_run(scalar_campaign, opt, /*incremental=*/true);
    dnn::kernels::set_active_mode(prev_mode);
  }
  if (scalar_inc.result.acc.bytes() != inc.result.acc.bytes()) {
    std::cerr << "FATAL: scalar and " << prev_mode
              << " kernels disagree on " << ctx.name << " "
              << numeric::dtype_name(dt)
              << " — SIMD bit-identity contract broken\n";
    std::exit(1);
  }

  Cell cell;
  cell.network = ctx.name;
  cell.dtype = std::string(numeric::dtype_name(dt));
  cell.site = fault::site_class_name(site);
  cell.full_tps = full.tps;
  cell.incremental_tps = inc.tps;
  cell.speedup = full.tps > 0 ? inc.tps / full.tps : 0;
  cell.masked_rate =
      static_cast<double>(inc.result.masked_exits) / static_cast<double>(trials);
  cell.suffix_mac_fraction = expected_suffix_mac_fraction(ctx.model.spec);
  cell.replay_mac_fraction =
      measured_replay_mac_fraction(ctx, dt, site, opt.seed, trials);
  cell.scalar_tps = scalar_inc.tps;
  cell.kernel_speedup = scalar_inc.tps > 0 ? inc.tps / scalar_inc.tps : 0;
  return cell;
}

void write_json(const std::vector<Cell>& cells, std::size_t trials,
                const std::string& path) {
  const auto prof = dnn::kernels::kernel_profile();
  std::ostringstream out;
  out << "{\n  \"trials_per_cell\": " << trials << ",\n"
      << "  \"kernels\": {\"mode\": \"" << prof.mode
      << "\", \"cpu_avx2\": " << (prof.cpu_avx2 ? "true" : "false")
      << ", \"cpu_avx512\": " << (prof.cpu_avx512 ? "true" : "false")
      << ", \"cpu_avx512fp16\": "
      << (prof.cpu_avx512fp16 ? "true" : "false")
      << ", \"cpu_f16c\": " << (prof.cpu_f16c ? "true" : "false")
      << ", \"f16c_compiled\": " << (prof.f16c_compiled ? "true" : "false")
      << ", \"active_float\": \"" << prof.active_float
      << "\", \"active_float16\": \"" << prof.active_float16 << "\"},\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"network\": \"" << c.network << "\", \"dtype\": \""
        << c.dtype << "\", \"site\": \"" << c.site
        << "\", \"full_trials_per_sec\": " << c.full_tps
        << ", \"incremental_trials_per_sec\": " << c.incremental_tps
        << ", \"speedup\": " << c.speedup
        << ", \"masked_exit_rate\": " << c.masked_rate
        << ", \"expected_suffix_mac_fraction\": " << c.suffix_mac_fraction
        << ", \"replay_mac_fraction\": " << c.replay_mac_fraction
        << ", \"scalar_incremental_trials_per_sec\": " << c.scalar_tps
        << ", \"kernel_speedup\": " << c.kernel_speedup
        << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!write_file_atomic(path, out.str()))
    std::cerr << "warning: could not write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) check = true;

  const std::size_t trials = samples(400);
  banner("campaign throughput: incremental vs full fault replay", trials);
  {
    const auto prof = dnn::kernels::kernel_profile();
    std::cout << "kernels: mode=" << prof.mode
              << " float=" << prof.active_float
              << " float16=" << prof.active_float16
              << " (cpu avx2=" << (prof.cpu_avx2 ? "yes" : "no")
              << " avx512=" << (prof.cpu_avx512 ? "yes" : "no")
              << " avx512fp16=" << (prof.cpu_avx512fp16 ? "yes" : "no")
              << " f16c=" << (prof.cpu_f16c ? "yes" : "no")
              << ", f16c built=" << (prof.f16c_compiled ? "yes" : "no")
              << ")\n";
  }

  std::vector<Cell> cells;
  Table t("campaign throughput (trials/s)");
  t.header({"network", "dtype", "site", "full", "incremental", "speedup",
            "masked", "E[suffix MACs]", "replay MACs", "scalar",
            "vs scalar"});
  using fault::SiteClass;
  for (const NetworkId id : {NetworkId::kAlexNetS, NetworkId::kConvNet}) {
    const NetContext ctx = load_net(id);
    std::vector<std::pair<numeric::DType, SiteClass>> runs{
        {numeric::DType::kFloat16, SiteClass::kDatapathLatch},
        {numeric::DType::kFloat, SiteClass::kDatapathLatch}};
    if (id == NetworkId::kAlexNetS) {
      runs.emplace_back(numeric::DType::kFx32r10, SiteClass::kDatapathLatch);
      runs.emplace_back(numeric::DType::kFloat16, SiteClass::kGlobalBuffer);
    }
    for (const auto& [dt, site] : runs) {
      const Cell c = measure(ctx, dt, site, trials);
      t.row({c.network, c.dtype, c.site, Table::num(c.full_tps, 1),
             Table::num(c.incremental_tps, 1),
             Table::num(c.speedup, 2) + "x",
             Table::pct(c.masked_rate),
             Table::pct(c.suffix_mac_fraction),
             Table::pct(c.replay_mac_fraction),
             Table::num(c.scalar_tps, 1),
             Table::num(c.kernel_speedup, 2) + "x"});
      cells.push_back(c);
    }
  }
  emit(t, "BENCH_campaign_throughput");

  std::filesystem::create_directories(results_dir());
  const std::string json = results_dir() + "/BENCH_campaign_throughput.json";
  write_json(cells, trials, json);
  std::cout << "[json] " << json << "\n";

  if (check) {
    bool fail = false;
    for (const Cell& c : cells) {
      if (c.incremental_tps < c.full_tps) {
        std::cerr << "FAIL: incremental replay slower than full on "
                  << c.network << " " << c.dtype << " " << c.site << " ("
                  << c.incremental_tps << " vs " << c.full_tps
                  << " trials/s)\n";
        fail = true;
      }
    }
    if (fail) return 1;
    std::cout << "check passed: incremental >= full on every cell, and "
                 "scalar/SIMD kernel modes were byte-identical\n";
  }
  return 0;
}
