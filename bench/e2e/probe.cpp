#include "probe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "dnnfi/accel/dataflow.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/common/thread_pool.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/stats_io.h"
#include "dnnfi/fault/supervisor.h"
#include "dnnfi/fault/transport.h"
#include "json.h"
#include "stats.h"

namespace e2e {

using namespace dnnfi;
using Clock = SpanLog::Clock;

// ---- SpanLog ---------------------------------------------------------------

void SpanLog::begin_process(int pid, const std::string& name) {
  pid_ = pid;
  processes_.push_back(Process{pid, name});
}

int SpanLog::open(const char* name, int parent, std::int64_t trial) {
  const auto now = Clock::now();
  return add(name, now, now, parent, trial);
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

int SpanLog::add(const char* name, Clock::time_point start,
                 Clock::time_point end, int parent, std::int64_t trial) {
  spans_.push_back(Span{name, start, end, parent, trial, pid_});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const Process& p : processes_) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << p.pid
        << ",\"tid\":1,\"args\":{\"name\":" << json_string(p.name) << "}}";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"bench_e2e\",\"ph\":\"X\""
        << ",\"pid\":" << s.pid << ",\"tid\":1,\"ts\":" << json_number(us(s.start))
        << ",\"dur\":"
        << json_number(
               std::chrono::duration<double, std::micro>(s.end - s.start).count())
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"trial\":" << s.trial << "}}";
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

// ---- the traced run ----------------------------------------------------------

namespace {

/// Spans are kept for this many leading trials of each probe.
constexpr std::uint64_t kSpanTrials = 2000;
/// Repetitions of the set-up calls (model load, campaign build).
constexpr int kSetupRepeats = 5;
/// Repetitions of the calls that take microseconds.
constexpr int kMicroRepeats = 200;
/// Golden inputs per campaign, as in every CLI workload (--inputs 8).
constexpr std::size_t kInputs = 8;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// The kernel kinds AlexNet-S replays, in metric order.
constexpr std::array<const char*, 6> kKernelNames = {
    "conv", "fc", "lrn", "maxpool", "relu", "softmax"};
constexpr std::array<const char*, 6> kKernelSpans = {
    "kernel.conv", "kernel.fc",   "kernel.lrn",
    "kernel.maxpool", "kernel.relu", "kernel.softmax"};

int kernel_slot(dnn::StepKernel k) {
  switch (k) {
    case dnn::StepKernel::kConv: return 0;
    case dnn::StepKernel::kFc: return 1;
    case dnn::StepKernel::kLrn: return 2;
    case dnn::StepKernel::kMaxPool: return 3;
    case dnn::StepKernel::kRelu: return 4;
    case dnn::StepKernel::kSoftmax: return 5;
    default: return -1;
  }
}

/// Sums over the probed trials of one workload's per-trial pipeline.
struct PipelineStats {
  fault::OutcomeAccumulator acc;
  std::uint64_t masked = 0;
  double sample_ns = 0;
  double lower_ns = 0;
  double replay_ns = 0;
  double classify_ns = 0;
  double add_ns = 0;
  double trial_ns = 0;  ///< the whole pipeline; kernel re-timing excluded
  std::vector<double> replay_each;
  double layers_run = 0;
  double mac_frac = 0;
  std::array<double, kKernelNames.size()> kernel_ns{};
  double conv_macs = 0;
};

/// Replicates the campaign's per-trial pipeline with its public calls, in
/// campaign order: derive_stream(seed, t), input t % inputs, sample, lower,
/// run (activation cache + fault + early exit), classify, add. Afterwards
/// each plan step the replay reported as run is executed again through
/// ExecutionPlan::exec_step and timed per kernel kind.
template <typename T>
PipelineStats probe_pipeline(const ProbeConfig& cfg, const dnn::Model& model,
                             const std::vector<dnn::Example>& inputs,
                             SpanLog& log, int parent) {
  const dnn::Network<T> net = dnn::instantiate<T>(model.spec, model.blob);
  const dnn::ExecutionPlan<T>& plan = net.plan();
  const fault::Sampler sampler(model.spec, numeric::dtype_of<T>());
  const std::vector<std::size_t> ends = fault::block_end_layers(model.spec);
  const std::size_t last_end = ends.back();
  const std::vector<accel::LayerFootprint> fp = accel::analyze(model.spec);
  const auto total_macs = static_cast<double>(accel::total_macs(fp));

  std::vector<dnn::ActivationCache<T>> caches;
  std::vector<dnn::Prediction> golden;
  caches.reserve(inputs.size());
  for (const dnn::Example& ex : inputs) {
    const dnn::Tensor<T> image = tensor::convert<T>(ex.image);
    caches.emplace_back(plan, image);
    golden.push_back(net.interpret(caches.back().output()));
  }

  const dnn::Executor<T> exec(plan);
  dnn::Workspace<T> ws(plan);
  // The campaign's observer when no detector and no block distances are
  // requested: the final block-end mismatch fraction, which feeds the
  // accumulator's reached-output counts.
  const dnn::ActivationCache<T>* cache = nullptr;
  double corruption = 0;
  const dnn::LayerObserver<T> observer =
      [&](std::size_t layer, tensor::ConstTensorView<T> act) {
        if (layer != last_end) return;
        corruption = static_cast<double>(tensor::bitwise_mismatch_count<T>(
                         act, cache->act(layer))) /
                     static_cast<double>(act.size());
      };

  PipelineStats st;
  st.acc = fault::OutcomeAccumulator(ends.size());
  st.replay_each.reserve(cfg.probe_trials);
  dnn::ReplayInfo replay;
  for (std::uint64_t t = 0; t < cfg.probe_trials; ++t) {
    const auto t0 = Clock::now();
    Rng rng = derive_stream(cfg.seed, t);
    const auto input = static_cast<std::size_t>(t % caches.size());
    fault::TrialRecord tr;
    tr.input_index = input;
    tr.fault = sampler.sample(cfg.site, rng);
    const auto t1 = Clock::now();
    const dnn::AppliedFault af = fault::lower(tr.fault, net.mac_layers());
    const auto t2 = Clock::now();
    cache = &caches[input];
    corruption = 0;
    dnn::RunRequest<T> req;
    req.cache = cache;
    req.fault = &af;
    req.record = &tr.record;
    req.observer = &observer;
    req.early_exit = true;
    req.replay = &replay;
    const tensor::ConstTensorView<T> out = exec.run(ws, req);
    const auto t3 = Clock::now();
    tr.outcome = fault::classify(golden[input], net.interpret(out));
    const auto t4 = Clock::now();
    tr.output_corruption = corruption;
    st.acc.add(tr);
    const auto t5 = Clock::now();

    st.sample_ns += ns_between(t0, t1);
    st.lower_ns += ns_between(t1, t2);
    st.replay_ns += ns_between(t2, t3);
    st.replay_each.push_back(ns_between(t2, t3));
    st.classify_ns += ns_between(t3, t4);
    st.add_ns += ns_between(t4, t5);
    st.trial_ns += ns_between(t0, t5);
    if (replay.masked) ++st.masked;

    // Steps that ran: the fault layer re-executes on a global-buffer flip
    // and is patched in place otherwise; then layers_run - 1 more.
    const std::size_t first = af.flip_layer_input ? af.layer : af.layer + 1;
    const std::size_t last = replay.fault_layer + replay.layers_run;
    st.layers_run += static_cast<double>(replay.layers_run);
    st.mac_frac +=
        static_cast<double>(accel::macs_in_range(fp, first, last)) / total_macs;

    const bool traced = t < kSpanTrials;
    const auto id = static_cast<std::int64_t>(t);
    int retime = -1;
    if (traced) {
      const int trial = log.add("trial", t0, t5, parent, id);
      log.add("sample", t0, t1, trial, id);
      log.add("lower", t1, t2, trial, id);
      log.add("replay", t2, t3, trial, id);
      log.add("classify", t3, t4, trial, id);
      log.add("add", t4, t5, trial, id);
      retime = log.open("retime", trial, id);
    }
    for (std::size_t i = first; i < last; ++i) {
      const dnn::PlanStep<T>& step = plan.steps()[i];
      const int slot = kernel_slot(step.kernel);
      if (slot < 0) continue;
      const tensor::TensorView<T> scratch = ws.out_buffer(0, step.out_shape);
      const auto k0 = Clock::now();
      plan.exec_step(i, cache->layer_input(i), scratch, ws.packed_data());
      const auto k1 = Clock::now();
      const auto k = static_cast<std::size_t>(slot);
      st.kernel_ns[k] += ns_between(k0, k1);
      if (step.kernel == dnn::StepKernel::kConv)
        st.conv_macs += static_cast<double>(step.macs);
      if (traced) log.add(kKernelSpans[k], k0, k1, retime, id);
    }
    if (traced) log.close(retime);
  }
  return st;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::vector<dnn::Example> test_inputs() {
  const auto ds = data::dataset_for(dnn::zoo::NetworkId::kAlexNetS);
  std::vector<dnn::Example> v;
  for (std::size_t i = 0; i < kInputs; ++i) {
    auto s = ds->sample(data::kTestSplitBegin + i);
    v.push_back(dnn::Example{std::move(s.image), s.label});
  }
  return v;
}

/// Median wall time of `reps` calls of `fn`, in units of `Unit`.
template <typename Unit, typename Fn>
double time_median(int reps, const Fn& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(std::chrono::duration<double, Unit>(Clock::now() - t0).count());
  }
  return median(std::move(v));
}

std::string counts_of(const fault::OutcomeAccumulator& a, std::uint64_t masked) {
  return "SDC-1 " + std::to_string(a.sdc1().hits) + ", SDC-5 " +
         std::to_string(a.sdc5().hits) + ", masked exits " +
         std::to_string(masked);
}

}  // namespace

ProbeReport run_probe(const ProbeConfig& cfg, SpanLog& log) {
  namespace fs = std::filesystem;
  using Ms = std::milli;
  using Us = std::micro;
  fs::remove_all(cfg.work_dir);
  fs::create_directories(cfg.work_dir);

  ProbeReport rep;
  const auto metric = [&rep](const char* name, double value,
                             const char* unit) {
    rep.metrics.push_back(Metric{name, value, unit});
  };
  const auto check = [&rep](bool ok, const std::string& what) {
    ++rep.stages;
    if (!ok) rep.failures.push_back(what);
  };

  // data: the model file -> topology + weights.
  const std::string model_path =
      cfg.model_dir + "/" +
      dnn::zoo::model_filename(dnn::zoo::NetworkId::kAlexNetS);
  dnn::Model model;
  int span = log.open("data.load_model");
  metric("data.load_model_ms", time_median<Ms>(kSetupRepeats, [&] {
           model = dnn::load_model(model_path);
         }), "ms");
  log.close(span);
  const std::vector<dnn::Example> inputs = test_inputs();

  // campaign: typed network, golden activation caches, predictions.
  std::optional<fault::Campaign> campaign;
  std::vector<double> build_ms;
  span = log.open("campaign.build");
  for (int i = 0; i < kSetupRepeats; ++i) {
    campaign.reset();
    std::vector<dnn::Example> copy = inputs;
    const auto t0 = Clock::now();
    campaign.emplace(model.spec, model.blob, cfg.dtype, std::move(copy));
    build_ms.push_back(
        std::chrono::duration<double, Ms>(Clock::now() - t0).count());
  }
  log.close(span);
  metric("campaign.build_ms", median(build_ms), "ms");

  // sampler, injector, executor, kernels, outcome, accumulator.add: the
  // per-trial pipeline on one thread.
  span = log.open("probe");
  const PipelineStats p =
      numeric::dispatch_dtype(cfg.dtype, [&]<typename T>() {
        return probe_pipeline<T>(cfg, model, inputs, log, span);
      });
  log.close(span);
  const auto n = static_cast<double>(cfg.probe_trials);
  metric("sampler.sample_ns", p.sample_ns / n, "ns");
  metric("injector.lower_ns", p.lower_ns / n, "ns");
  metric("executor.replay_ns", p.replay_ns / n, "ns");
  metric("executor.replay_ns.p99", percentile(p.replay_each, 0.99), "ns");
  metric("executor.layers_run", p.layers_run / n, "layers/trial");
  metric("executor.masked_exit_rate", static_cast<double>(p.masked) / n,
         "ratio");
  metric("executor.replay_mac_frac", p.mac_frac / n, "ratio");
  for (std::size_t k = 0; k < kKernelNames.size(); ++k)
    rep.metrics.push_back(
        Metric{std::string("kernels.") + kKernelNames[k] + "_ns_per_trial",
               p.kernel_ns[k] / n, "ns"});
  metric("kernels.conv_gflops", 2.0 * p.conv_macs / p.kernel_ns[0], "GFLOP/s");
  metric("outcome.classify_ns", p.classify_ns / n, "ns");
  metric("accumulator.add_ns", p.add_ns / n, "ns");

  // Faithfulness: the same trials through the untraced engine on one
  // thread must give the same aggregates; its time is the tracing base.
  ThreadPool serial(0);
  fault::CampaignOptions opt;
  opt.trials = cfg.probe_trials;
  opt.seed = cfg.seed;
  opt.site = cfg.site;
  opt.pool = &serial;
  span = log.open("campaign.run_shard");
  const auto r0 = Clock::now();
  const fault::ShardResult ref = campaign->run_shard(opt, fault::ShardSpec{});
  const double ref_ns = ns_between(r0, Clock::now());
  log.close(span);
  check(ref.acc.bytes() == p.acc.bytes() && ref.masked_exits == p.masked,
        "traced probe's aggregates differ from Campaign::run_shard's on the "
        "same trials (probe: " + counts_of(p.acc, p.masked) +
            "; run_shard: " + counts_of(ref.acc, ref.masked_exits) + ")");
  metric("trace.trials", n, "count");
  metric("trace.overhead_frac", p.trial_ns / ref_ns - 1.0, "ratio");

  metric("accumulator.merge_us", time_median<Us>(kMicroRepeats, [&] {
           fault::OutcomeAccumulator into(p.acc.num_blocks());
           into.merge(p.acc);
         }), "us");

  const std::string stats_path = cfg.work_dir + "/probe.stats";
  const std::uint64_t fingerprint = campaign->fingerprint(opt);
  bool stats_ok = true;
  span = log.open("stats_io.write");
  metric("stats_io.write_us", time_median<Us>(kSetupRepeats * 4, [&] {
           stats_ok = stats_ok && fault::write_stats_file(stats_path, fingerprint,
                                                          p.acc, p.masked)
                                      .ok();
         }), "us");
  log.close(span);
  check(stats_ok, "write_stats_file failed on " + stats_path);

  // supervisor / fleet: a supervised campaign against the in-process one
  // on the same trials and thread budget.
  const std::string sup_dir = cfg.work_dir + "/supervise";
  const std::uint64_t shard = std::max<std::uint64_t>(1, cfg.sup_trials / 4);
  fault::SupervisorOptions so;
  so.binary = cfg.campaign_bin;
  so.trials = cfg.sup_trials;
  so.shard_size = shard;
  so.workers = 2;
  so.checkpoint_dir = sup_dir;
  so.jitter_seed = cfg.seed;
  so.verbose = false;
  if (cfg.fleet) so.hosts = "localhost:1,localhost:1";
  so.worker_flags = {
      "--network", "alexnet",
      "--dtype", std::string(numeric::dtype_name(cfg.dtype)),
      "--site", fault::site_class_name(cfg.site),
      "--trials", std::to_string(cfg.sup_trials),
      "--seed", std::to_string(cfg.seed),
      "--inputs", std::to_string(kInputs),
      "--batch", std::to_string(std::max<std::uint64_t>(1, shard / 10))};
  // Workers inherit their thread count from this process's environment:
  // two workers of threads / 2 each, as in the supervised workloads.
  setenv("DNNFI_THREADS", std::to_string(std::max(1, cfg.threads / 2)).c_str(),
         1);
  span = log.open("supervise");
  const auto s0 = Clock::now();
  const Expected<fault::SupervisorReport> sup = fault::supervise(so);
  const double sup_s = std::chrono::duration<double>(Clock::now() - s0).count();
  log.close(span);

  ThreadPool pool(cfg.threads > 1 ? static_cast<std::size_t>(cfg.threads) : 0);
  fault::CampaignOptions mt_opt = opt;
  mt_opt.trials = cfg.sup_trials;
  mt_opt.pool = &pool;
  span = log.open("campaign.run_shard.threads");
  const auto m0 = Clock::now();
  const fault::ShardResult mt = campaign->run_shard(mt_opt, fault::ShardSpec{});
  const double mt_s = std::chrono::duration<double>(Clock::now() - m0).count();
  log.close(span);
  check(sup.ok() && sup.value().acc.bytes() == mt.acc.bytes(),
        sup.ok() ? "supervised campaign (" +
                       counts_of(sup.value().acc, sup.value().masked_exits) +
                       ") differs from the in-process run (" +
                       counts_of(mt.acc, mt.masked_exits) + ")"
                 : "supervise() failed: " + sup.error().to_string());
  const auto count = [&sup](int fault::SupervisorReport::*field) {
    return sup.ok() ? static_cast<double>(sup.value().*field) : kNaN;
  };
  metric("supervisor.workers_spawned",
         count(&fault::SupervisorReport::workers_spawned), "count");
  metric("supervisor.retries", count(&fault::SupervisorReport::retries),
         "count");
  metric("fleet.checkpoints_shipped",
         count(&fault::SupervisorReport::checkpoints_shipped), "count");
  metric("supervisor.overhead_s", sup_s - mt_s, "s");

  // checkpoint / transport: the supervised run's real shard images.
  std::vector<std::vector<std::uint8_t>> images;
  if (fs::is_directory(sup_dir)) {
    for (const auto& e : fs::directory_iterator(sup_dir)) {
      if (!e.path().filename().string().starts_with("shard_") ||
          e.path().extension() != ".ckpt")
        continue;
      auto bytes = fault::read_checkpoint_bytes(e.path().string());
      if (bytes.ok()) images.push_back(std::move(bytes).value());
    }
  }
  std::vector<double> sizes, parse_us, save_us, encode_us, decode_us;
  bool images_ok = !images.empty();
  const std::string save_path = cfg.work_dir + "/probe.ckpt";
  span = log.open("checkpoint");
  for (int r = 0; r < kSetupRepeats * 4; ++r) {
    for (const auto& img : images) {
      const auto t0 = Clock::now();
      auto parsed = fault::parse_checkpoint_bytes(img.data(), img.size(), "probe");
      const auto t1 = Clock::now();
      if (!parsed.ok()) {
        images_ok = false;
        continue;
      }
      const bool saved =
          fault::try_save_shard_checkpoint(save_path, parsed.value()).ok();
      const auto t2 = Clock::now();
      const std::vector<std::uint8_t> frame = fault::encode_frame(
          fault::FrameType::kCheckpoint, img.data(), img.size());
      const auto t3 = Clock::now();
      fault::FrameDecoder dec;
      dec.feed(frame.data(), frame.size());
      const auto next = dec.next();
      const auto t4 = Clock::now();
      images_ok = images_ok && saved && next.ok() && next.value().has_value() &&
                  next.value()->payload == img;
      sizes.push_back(static_cast<double>(img.size()));
      parse_us.push_back(std::chrono::duration<double, Us>(t1 - t0).count());
      save_us.push_back(std::chrono::duration<double, Us>(t2 - t1).count());
      encode_us.push_back(std::chrono::duration<double, Us>(t3 - t2).count());
      decode_us.push_back(std::chrono::duration<double, Us>(t4 - t3).count());
    }
  }
  log.close(span);
  check(images_ok, "shard checkpoint images in " + sup_dir +
                       " are missing or do not round-trip");
  metric("checkpoint.bytes", median(sizes), "bytes");
  metric("checkpoint.save_us", median(save_us), "us");
  metric("checkpoint.parse_us", median(parse_us), "us");
  metric("transport.encode_us", median(encode_us), "us");
  metric("transport.decode_us", median(decode_us), "us");

  // adaptive: stratified rounds to a 1e-3 CI (or the workload's budget),
  // then the controller and estimator on the final per-stratum counts.
  fault::CampaignOptions strat = opt;
  strat.sampler = fault::SamplerMode::kStratified;
  strat.stratified.target_ci = 1e-3;
  strat.trials = cfg.strat_budget;
  span = log.open("adaptive.run_stratified");
  const auto a0 = Clock::now();
  const fault::StratifiedResult sr = campaign->run_stratified(strat);
  const double strat_ms =
      std::chrono::duration<double, Ms>(Clock::now() - a0).count();
  log.close(span);
  check(sr.complete, "stratified probe stopped before completion");
  const std::vector<fault::StratumCounts> counts =
      sr.counts([](const fault::OutcomeAccumulator& a) { return a.sdc1().hits; });
  metric("adaptive.rounds", static_cast<double>(sr.rounds), "count");
  metric("adaptive.round_ms",
         strat_ms / static_cast<double>(std::max<std::uint64_t>(1, sr.rounds)),
         "ms");
  metric("adaptive.next_allocation_us", time_median<Us>(kMicroRepeats, [&] {
           (void)fault::next_allocation(counts, strat.stratified,
                                        cfg.strat_budget - sr.trials);
         }), "us");
  metric("adaptive.estimate_us", time_median<Us>(kMicroRepeats, [&] {
           (void)fault::stratified_estimate(counts);
         }), "us");
  return rep;
}

}  // namespace e2e
