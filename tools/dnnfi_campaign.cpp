// dnnfi's command-line runner: sharded, resumable, supervised
// fault-injection campaigns, plus single-trial narration and network
// inspection.
//
// Subcommands:
//   run       --network <name> --dtype <name> [--site <name>] [--trials N]
//             [--seed S] [--shard B:E] [--checkpoint FILE] [--batch N]
//             [--stop-after N] [--bit B] [--layer L] [--storage <dtype>]
//             [--inputs N] [--distances] [--out FILE] [--no-progress]
//             [--no-incremental]
//             Runs trial indices [B, E) of an N-trial campaign, streaming
//             records into an accumulator. With --checkpoint, state is saved
//             after every batch and an existing file resumes transparently.
//             --no-incremental disables incremental fault replay (the
//             masked-fault early exit); results are byte-identical either
//             way, the flag only trades speed for a full-replay cross-check.
//             A complete uniform run also prints the component's FIT rate
//             (Eyeriss-16nm, or a systolic datapath) from its SDC-1 rate.
//   resume    Same flags as run; requires the checkpoint file to exist.
//   merge     [--out FILE] <checkpoint>...
//             Validates that the checkpoints belong to one campaign (equal
//             fingerprints, disjoint complete shards) and merges them. The
//             merged aggregates are bit-identical to a single-process run.
//   supervise Campaign flags plus [--workers W] [--shard-size N]
//             [--ckpt-dir DIR] [--heartbeat-timeout S] [--shard-timeout S]
//             [--max-attempts N] [--backoff S] [--max-quarantine N]
//             Partitions the campaign into shards and runs them on one
//             persistent worker subprocess per slot (model loaded once per
//             worker) under a watchdog: hung workers are SIGKILLed,
//             failed shards retry with exponential backoff, repeatedly
//             failing shards are bisected down to the poison trial, which
//             is quarantined instead of aborting the campaign. Workers
//             ship their checkpoints home after every batch; crashed
//             workers (and a crashed supervisor) resume from the shard
//             checkpoints in --ckpt-dir. See DESIGN.md §9.
//             Workers run on a fleet: `localhost:W` by default, or the
//             members of [--hosts h1:slots,h2:slots[:workdir]] or
//             [--hosts-file FILE] (ssh for real hosts, direct exec for
//             localhost entries; --workers is then a usage error). A dead
//             host's shards are retried elsewhere from the last shipped
//             batch. [--host-quarantine S] and [--host-fail-limit N] tune
//             per-host health; SIGHUP re-reads --hosts-file (elastic
//             membership). See DESIGN.md §13.
//   inject    Campaign flags with a required --shard B:E
//             Narrates trials [B, E): the sampled fault, the corrupted
//             value, the outcome and the output corruption of each. The
//             trials stream from the same run_shard a `run` executes.
//   profile   --network <name> --dtype <name> [--inputs N]
//             Prints fault-free per-layer value ranges over N examples
//             (SED learning data).
//   info      --network <name>
//             Prints topology, MACs, weights, and buffer footprints, and
//             the kernel sets DNNFI_KERNELS and CPUID resolve to.
//   worker    (internal) Campaign flags plus --ckpt-dir DIR: a persistent
//             supervised worker. Runs one shard per kInit frame on stdin
//             (range + resume checkpoint, landed in DIR) and answers with
//             checkpoint frames on stdout; exits 0 on EOF, otherwise with a
//             taxonomy-coded exit status.
//
// SIGINT/SIGTERM trigger a graceful shutdown everywhere: the in-flight
// batch finishes, a final checkpoint is written, and the process exits 4
// instead of dying mid-write.
//
// Exit codes: 0 complete, 2 usage error, 3 stopped before the shard end
// (--stop-after), 4 interrupted (SIGINT/SIGTERM after a clean checkpoint),
// 10-13 retryable failures (I/O, OOM, timeout, crash), 20-24 fatal ones
// (corrupt data, version skew, fingerprint/shard mismatch, quarantine
// overflow), 1 anything unclassified — see common/error.h.
//
// --out writes a deterministic stats dump (counters in decimal, doubles as
// C99 hex floats), so bit-identity across shardings is a textual diff.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/common/env.h"
#include "dnnfi/common/error.h"
#include "dnnfi/common/table.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/zoo.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/stats_io.h"
#include "dnnfi/fault/supervisor.h"
#include "dnnfi/fault/transport.h"
#include "dnnfi/fit/fit.h"
#include "cli_number.h"

namespace {

using namespace dnnfi;
using dnn::zoo::NetworkId;

/// Set by the SIGINT/SIGTERM handler; campaign batch loops poll it.
std::atomic<bool> g_cancel{false};
/// Set by SIGHUP; the fleet supervisor re-reads --hosts-file when it reads
/// true (elastic membership).
std::atomic<bool> g_reload{false};

void on_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }
void on_sighup(int) { g_reload.store(true, std::memory_order_relaxed); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sa.sa_flags = SA_RESTART;  // don't turn in-flight checkpoint writes into EINTR
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = on_sighup;
  sigaction(SIGHUP, &sa, nullptr);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr
      << "error: " << why << "\n\n"
      << "usage: dnnfi_campaign <run|resume|supervise|inject|profile|info> "
         "--network <name> [--dtype <name>] [options]\n"
         "       dnnfi_campaign merge [--out FILE] <checkpoint>...\n"
         "  networks: convnet alexnet caffenet nin\n"
         "  dtypes:   DOUBLE FLOAT FLOAT16 32b_rb26 32b_rb10 16b_rb10\n"
         "  sites:    datapath global-buffer filter-sram img-reg psum-reg\n"
         "  accels:   eyeriss systolic:<rows>x<cols>\n"
         "  fault ops: toggle toggle:<n> set0 set1 set0:0x<mask> ...\n"
         "  options:  --trials N --seed S --shard B:E --checkpoint FILE\n"
         "            --batch N --stop-after N --bit B --layer L --inputs N\n"
         "            --storage <dtype> --accel <geom> --fault-op <op>\n"
         "            --sampler uniform|stratified --pilot N --round-size N\n"
         "            --ci-target X (stratified: 0 disables the CI stop)\n"
         "            --distances --out FILE --no-progress --no-incremental\n"
         "  inject:   --shard B:E required; profile: --inputs N examples\n"
         "  supervise: --workers W --shard-size N --ckpt-dir DIR\n"
         "            --heartbeat-timeout S --shard-timeout S\n"
         "            --max-attempts N --backoff S --max-quarantine N\n"
         "  fleet:    --hosts host:slots[:workdir],... | --hosts-file FILE\n"
         "            --host-quarantine S --host-fail-limit N\n"
         "            (SIGHUP re-reads --hosts-file mid-campaign)\n";
  std::exit(2);
}

/// A numeric flag value; usage() (exit 2) when `val` is not one.
template <typename N>
N number(const std::string& key, const std::string& val) {
  return cli::number<N>(key, val, usage);
}

NetworkId parse_network(const std::string& s) {
  if (s == "convnet") return NetworkId::kConvNet;
  if (s == "alexnet") return NetworkId::kAlexNetS;
  if (s == "caffenet") return NetworkId::kCaffeNetS;
  if (s == "nin") return NetworkId::kNiNS;
  usage("unknown network " + s);
}

/// Inverse of parse_network: the CLI token (not the display name), so the
/// supervisor can rebuild a worker command line from parsed options.
const char* cli_network_name(NetworkId id) {
  switch (id) {
    case NetworkId::kConvNet: return "convnet";
    case NetworkId::kAlexNetS: return "alexnet";
    case NetworkId::kCaffeNetS: return "caffenet";
    case NetworkId::kNiNS: return "nin";
  }
  return "convnet";
}

numeric::DType parse_dtype(const std::string& s) {
  for (const auto t : numeric::kAllDTypes)
    if (s == numeric::dtype_name(t)) return t;
  usage("unknown dtype " + s);
}

fault::SiteClass parse_site(const std::string& s) {
  for (const auto c : fault::kAllSiteClasses)
    if (s == fault::site_class_name(c)) return c;
  usage("unknown site " + s);
}

struct Args {
  std::string command;
  NetworkId network = NetworkId::kConvNet;
  numeric::DType dtype = numeric::DType::kFloat16;
  fault::SiteClass site = fault::SiteClass::kDatapathLatch;
  std::size_t trials = 2000;
  std::uint64_t seed = 2017;
  std::uint64_t shard_begin = 0;
  std::uint64_t shard_end = 0;  // 0 = trials
  bool have_shard = false;
  std::string checkpoint;
  std::size_t batch = 512;
  std::uint64_t stop_after = 0;
  std::optional<int> bit;
  std::optional<int> layer;
  std::optional<numeric::DType> storage;
  accel::AcceleratorConfig accel;
  fault::FaultOpSpec fault_op;
  fault::SamplerMode sampler = fault::SamplerMode::kUniform;
  fault::StratifiedOptions stratified;
  std::size_t inputs = 8;
  bool distances = false;
  bool incremental = true;
  std::string out;
  bool progress = true;
  std::vector<std::string> files;  // merge operands

  // supervise / worker
  std::optional<int> workers;  ///< unset = 2 (without --hosts)
  std::uint64_t shard_size = 0;
  std::string ckpt_dir;
  double heartbeat_timeout = 60.0;
  double shard_timeout = 0.0;
  int max_attempts = 3;
  double backoff = 0.25;
  std::size_t max_quarantine = 16;

  // fleet membership
  std::string hosts;
  std::string hosts_file;
  double host_quarantine = 2.0;  ///< quarantine base seconds
  int host_fail_limit = 3;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  bool have_network = false;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (!key.starts_with("--")) {
      a.files.push_back(key);
      continue;
    }
    if (key == "--distances") {
      a.distances = true;
      continue;
    }
    if (key == "--no-progress") {
      a.progress = false;
      continue;
    }
    if (key == "--no-incremental") {
      a.incremental = false;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--network") {
      a.network = parse_network(val);
      have_network = true;
    } else if (key == "--dtype") {
      a.dtype = parse_dtype(val);
    } else if (key == "--site") {
      a.site = parse_site(val);
    } else if (key == "--trials") {
      a.trials = number<std::size_t>(key, val);
    } else if (key == "--seed") {
      a.seed = number<std::uint64_t>(key, val);
    } else if (key == "--shard") {
      const auto colon = val.find(':');
      if (colon == std::string::npos) usage("--shard expects B:E");
      a.shard_begin = number<std::uint64_t>(key, val.substr(0, colon));
      a.shard_end = number<std::uint64_t>(key, val.substr(colon + 1));
      a.have_shard = true;
    } else if (key == "--checkpoint") {
      a.checkpoint = val;
    } else if (key == "--batch") {
      a.batch = number<std::size_t>(key, val);
    } else if (key == "--stop-after") {
      a.stop_after = number<std::uint64_t>(key, val);
    } else if (key == "--bit") {
      a.bit = number<int>(key, val);
    } else if (key == "--layer") {
      a.layer = number<int>(key, val);
    } else if (key == "--storage") {
      a.storage = parse_dtype(val);
    } else if (key == "--accel") {
      const auto cfg = accel::parse_accelerator(val);
      if (!cfg) usage("bad --accel (want eyeriss or systolic:<rows>x<cols>)");
      a.accel = *cfg;
    } else if (key == "--fault-op") {
      const auto spec = fault::FaultOpSpec::parse(val);
      if (!spec)
        usage("bad --fault-op (want toggle|set0|set1[:<n>|:0x<mask>])");
      a.fault_op = *spec;
    } else if (key == "--sampler") {
      if (val == "uniform")
        a.sampler = fault::SamplerMode::kUniform;
      else if (val == "stratified")
        a.sampler = fault::SamplerMode::kStratified;
      else
        usage("bad --sampler (want uniform or stratified)");
    } else if (key == "--pilot") {
      a.stratified.pilot = number<std::uint64_t>(key, val);
      if (a.stratified.pilot == 0) usage("--pilot must be positive");
    } else if (key == "--round-size") {
      a.stratified.round = number<std::uint64_t>(key, val);
      if (a.stratified.round == 0) usage("--round-size must be positive");
    } else if (key == "--ci-target") {
      a.stratified.target_ci = number<double>(key, val);
      if (a.stratified.target_ci < 0) usage("--ci-target must be >= 0");
    } else if (key == "--inputs") {
      a.inputs = number<std::size_t>(key, val);
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--workers") {
      a.workers = number<int>(key, val);
      if (*a.workers < 1) usage("--workers must be >= 1");
    } else if (key == "--shard-size") {
      a.shard_size = number<std::uint64_t>(key, val);
    } else if (key == "--ckpt-dir") {
      a.ckpt_dir = val;
    } else if (key == "--heartbeat-timeout") {
      a.heartbeat_timeout = number<double>(key, val);
    } else if (key == "--shard-timeout") {
      a.shard_timeout = number<double>(key, val);
    } else if (key == "--max-attempts") {
      a.max_attempts = number<int>(key, val);
    } else if (key == "--backoff") {
      a.backoff = number<double>(key, val);
    } else if (key == "--max-quarantine") {
      a.max_quarantine = number<std::size_t>(key, val);
    } else if (key == "--hosts") {
      a.hosts = val;
    } else if (key == "--hosts-file") {
      a.hosts_file = val;
    } else if (key == "--host-quarantine") {
      a.host_quarantine = number<double>(key, val);
      if (a.host_quarantine < 0) usage("--host-quarantine must be >= 0");
    } else if (key == "--host-fail-limit") {
      a.host_fail_limit = number<int>(key, val);
      if (a.host_fail_limit < 1) usage("--host-fail-limit must be >= 1");
    } else {
      usage("unknown option " + key);
    }
  }
  if (a.command != "merge") {
    if (!have_network) usage("--network is required");
    if (!accel::make_accelerator(a.accel)->supports(a.site))
      usage("site " + std::string(fault::site_class_name(a.site)) +
            " is not in the " + a.accel.to_string() + " site inventory");
    if (a.inputs == 0) usage("--inputs must be >= 1");
    const std::uint64_t end = a.shard_end == 0 ? a.trials : a.shard_end;
    if (a.shard_begin > end || end > a.trials)
      usage("--shard B:E needs B <= E <= --trials");
    // Pinned axes are checked here, not left to the sampler's contract:
    // --bit indexes the struck word (the --storage word for buffer sites),
    // --layer a logical layer (1-based).
    const numeric::DType word =
        a.storage && a.site != fault::SiteClass::kDatapathLatch ? *a.storage
                                                                : a.dtype;
    if (a.bit && (*a.bit < 0 || *a.bit >= numeric::dtype_width(word)))
      usage("--bit must be in [0, " +
            std::to_string(numeric::dtype_width(word)) + ") for " +
            std::string(numeric::dtype_name(word)));
    const int blocks = dnn::zoo::network_spec(a.network).num_blocks();
    if (a.layer && (*a.layer < 1 || *a.layer > blocks))
      usage("--layer must be in [1, " + std::to_string(blocks) + "]");
  }
  if (a.command == "inject" && !a.have_shard)
    usage("inject requires --shard B:E");
  if (a.workers && (!a.hosts.empty() || !a.hosts_file.empty()))
    usage("--workers sizes the default localhost fleet; with --hosts or "
          "--hosts-file give each host's slots there");
  if (a.sampler == fault::SamplerMode::kStratified) {
    // Stratified campaigns are sequential-adaptive over the *whole* site
    // population: no trial-index shards, no pinned axes, no supervision.
    if (a.command == "supervise" || a.command == "worker" ||
        a.command == "inject")
      usage(a.command + " runs uniform campaigns; use run --sampler "
            "stratified");
    if (a.shard_begin != 0 || a.shard_end != 0)
      usage("--shard is incompatible with --sampler stratified");
    if (a.bit || a.layer)
      usage("--bit/--layer pin a stratification axis; use --sampler uniform");
  }
  return a;
}

void print_summary(const std::string& title,
                   const fault::OutcomeAccumulator& acc) {
  Table t(title);
  t.header({"metric", "value"});
  const auto row = [&t](const char* name, const fault::Estimate& e) {
    t.row({name, Table::pct_ci(e.p, e.ci95) + " (" + std::to_string(e.hits) +
                     "/" + std::to_string(e.n) + ")"});
  };
  row("SDC-1", acc.sdc1());
  row("SDC-5", acc.sdc5());
  row("SDC-10%", acc.sdc10());
  row("SDC-20%", acc.sdc20());
  row("reached output", acc.reached_output());
  t.print(std::cout);
}

/// Writes the stats dump or exits with the taxonomy code for the failure.
int emit_stats_or_fail(const std::string& path, std::uint64_t fingerprint,
                       const fault::OutcomeAccumulator& acc,
                       std::uint64_t masked_exits,
                       const std::vector<std::uint64_t>& aborted = {},
                       const fault::StatsAxes& axes = {},
                       const fault::StratifiedStatsSection* strat = nullptr) {
  auto written = fault::write_stats_file(path, fingerprint, acc, masked_exits,
                                         aborted, axes, strat);
  if (!written.ok()) {
    std::cerr << "error: " << written.error().to_string() << "\n";
    return exit_code(written.error().code);
  }
  return 0;
}

/// One stratum's row of the v5 stats section. A finished stratified run and
/// its checkpoint (for `merge`) hold the same counters, so both emit
/// identical bytes.
fault::StratumStats stratum_stats(std::string id, double weight,
                                  const fault::OutcomeAccumulator& acc) {
  return {std::move(id),     weight,           acc.trials(),
          acc.sdc1().hits,   acc.sdc5().hits,  acc.sdc10().hits,
          acc.sdc20().hits};
}

/// Horvitz–Thompson estimates of a stratified section: unbiased population
/// rates with stratified 95% intervals and the effective sample size.
void print_ht_summary(const fault::StratifiedStatsSection& s,
                      std::uint64_t executed) {
  Table t("stratified estimates (Horvitz–Thompson)");
  t.header({"metric", "estimate", "n_eff"});
  const auto row = [&](const char* name,
                       std::uint64_t fault::StratumStats::*hits) {
    std::vector<fault::StratumCounts> c(s.strata.size());
    for (std::size_t h = 0; h < s.strata.size(); ++h) {
      c[h].weight = s.strata[h].weight;
      c[h].hits = s.strata[h].*hits;
      c[h].n = s.strata[h].trials;
    }
    const fault::StratifiedEstimate e = fault::stratified_estimate(c);
    t.row({name, Table::pct_ci(e.est.p, e.est.ci95),
           std::to_string(static_cast<std::uint64_t>(e.n_eff))});
  };
  row("SDC-1", &fault::StratumStats::sdc1);
  row("SDC-5", &fault::StratumStats::sdc5);
  row("SDC-10%", &fault::StratumStats::sdc10);
  row("SDC-20%", &fault::StratumStats::sdc20);
  t.print(std::cout);
  std::cout << "(" << s.strata.size() << " strata, " << executed
            << " trials executed)\n";
}

fault::CampaignOptions campaign_options(const Args& a) {
  fault::CampaignOptions opt;
  opt.trials = a.trials;
  opt.seed = a.seed;
  opt.site = a.site;
  opt.constraint.fixed_bit = a.bit;
  opt.constraint.fixed_block = a.layer;
  opt.constraint.buffer_storage = a.storage;
  opt.constraint.op = a.fault_op;
  opt.accel = a.accel;
  opt.sampler = a.sampler;
  opt.stratified = a.stratified;
  opt.record_block_distances = a.distances;
  opt.incremental_replay = a.incremental;
  opt.cancel = &g_cancel;
  return opt;
}

fault::StatsAxes stats_axes(const Args& a) {
  return fault::StatsAxes{a.accel.to_string(), a.fault_op.to_string(),
                          fault::sampler_id(campaign_options(a))};
}

/// Prints the FIT rate of the campaign's component given its SDC-1 rate:
/// the Eyeriss-16nm datapath or buffer, or a systolic datapath. Buffer FIT
/// needs a per-buffer bit inventory, which only the Eyeriss config carries;
/// datapath FIT scales with the PE count alone.
void print_fit(const Args& a, const dnn::NetworkSpec& spec, double sdc1) {
  const bool datapath = a.site == fault::SiteClass::kDatapathLatch;
  if (a.accel.is_eyeriss()) {
    const auto cfg = accel::eyeriss_16nm();
    const double f =
        datapath ? fit::datapath_fit(a.dtype, cfg.num_pes, sdc1)
                 : fit::buffer_fit(accel::analyze(spec),
                                   fault::buffer_of(a.site), cfg, sdc1);
    std::cout << "Eyeriss-16nm FIT for this component: " << f << "\n";
  } else if (datapath) {
    const double f = fit::datapath_fit(
        a.dtype, accel::make_accelerator(a.accel)->num_pes(), sdc1);
    std::cout << a.accel.to_string() << " datapath FIT (16nm latch rate): "
              << f << "\n";
  }
}

/// run/resume. Uniform runs trial indices [B, E) of the campaign; with
/// --sampler stratified the adaptive campaign runs instead, printing the
/// pooled (raw-count) summary plus the HT estimates, and --out emits the v5
/// stats file with the per-stratum section.
int cmd_run(const Args& a, bool resume) {
  if (resume) {
    if (a.checkpoint.empty()) usage("resume requires --checkpoint");
    if (!std::filesystem::exists(a.checkpoint)) {
      std::cerr << "error: checkpoint " << a.checkpoint
                << " does not exist; nothing to resume\n";
      return 1;
    }
  }
  const bool stratified = a.sampler == fault::SamplerMode::kStratified;
  dnn::Model m = data::pretrained(a.network);
  const fault::Campaign c(m.spec, std::move(m.blob), a.dtype,
                          data::test_examples(a.network, a.inputs));

  fault::CampaignOptions opt = campaign_options(a);
  if (a.progress) {
    opt.progress = [stratified](const fault::CampaignProgress& p) {
      if (stratified)
        std::cerr << "\rstratified: " << p.done << "/" << p.end
                  << " trial budget, " << static_cast<int>(p.trials_per_sec)
                  << "/s, SDC-1 ";
      else
        std::cerr << "\rshard [" << p.begin << ", " << p.end << "): " << p.done
                  << "/" << p.end - p.begin << " trials, "
                  << static_cast<int>(p.trials_per_sec) << "/s, ETA "
                  << static_cast<int>(p.eta_seconds) << "s, SDC-1 ";
      std::cerr << Table::pct_ci(p.sdc1.p, p.sdc1.ci95) << ", masked "
                << static_cast<int>(p.masked_exit_rate * 100.0) << "%   "
                << std::flush;
    };
  }

  fault::ShardSpec shard;
  shard.begin = a.shard_begin;
  shard.end = a.shard_end;
  shard.checkpoint = a.checkpoint;
  shard.batch = a.batch;
  shard.stop_after = a.stop_after;

  // An incomplete run names where it stopped and exits 3, or 4 when a
  // signal stopped it.
  const auto incomplete = [&](const std::string& where) {
    const bool interrupted = g_cancel.load(std::memory_order_relaxed);
    std::cerr << (interrupted ? "interrupted " : "stopped ") << where
              << (a.checkpoint.empty() ? "" : "; checkpoint saved") << "\n";
    return interrupted ? exit_code(Errc::kInterrupted) : 3;
  };
  const std::string what = std::string(dnn::zoo::network_name(a.network)) +
                           " " + std::string(numeric::dtype_name(a.dtype)) +
                           " " + fault::site_class_name(a.site);

  if (stratified) {
    const auto res = c.run_stratified(opt, shard);
    if (a.progress) std::cerr << "\n";
    if (!res.complete)
      return incomplete("after " + std::to_string(res.trials) + " of " +
                        std::to_string(a.trials) + " budgeted trials");
    print_summary("stratified campaign, " + std::to_string(res.trials) + "/" +
                      std::to_string(a.trials) +
                      " budgeted trials (pooled): " + what,
                  res.pooled);
    fault::StratifiedStatsSection section;
    for (std::size_t h = 0; h < res.strata.size(); ++h)
      section.strata.push_back(stratum_stats(
          res.strata[h].id(), res.weights[h], res.per_stratum[h]));
    print_ht_summary(section, res.trials);
    std::cerr << "stratified: " << res.rounds << " round(s), "
              << (res.converged ? "converged on the CI target"
                                : "stopped on the trial budget")
              << "\n";
    if (!a.out.empty())
      return emit_stats_or_fail(a.out, c.fingerprint(opt), res.pooled,
                                res.masked_exits, {}, stats_axes(a), &section);
    return 0;
  }

  const auto res = c.run_shard(opt, shard);
  if (a.progress) std::cerr << "\n";
  const std::string range = "[" + std::to_string(a.shard_begin) + ", " +
                            std::to_string(a.shard_end == 0 ? a.trials
                                                            : a.shard_end) +
                            ")";
  if (!res.complete)
    return incomplete("at trial " + std::to_string(res.next_trial) +
                      " of shard " + range);
  print_summary("shard " + range + " of " + std::to_string(a.trials) +
                    " trials: " + what,
                res.acc);
  print_fit(a, m.spec, res.acc.sdc1().p);
  if (!a.out.empty())
    return emit_stats_or_fail(a.out, c.fingerprint(opt), res.acc,
                              res.masked_exits, {}, stats_axes(a));
  return 0;
}

// ---- inject / profile / info ---------------------------------------------

/// Narrates trials [B, E) as they stream from run_shard: the same trials,
/// on the same code path, that a `run` of these flags folds.
int cmd_inject(const Args& a) {
  dnn::Model m = data::pretrained(a.network);
  const fault::Campaign c(m.spec, std::move(m.blob), a.dtype,
                          data::test_examples(a.network, a.inputs));
  fault::ShardSpec shard;
  shard.begin = a.shard_begin;
  shard.end = a.shard_end;
  const bool several = shard.end - shard.begin > 1;
  const fault::TrialSink narrate = [several](std::uint64_t trial,
                                             const fault::TrialRecord& tr) {
    if (several)
      std::cout << "-- trial " << trial << " (input " << tr.input_index
                << ") --\n";
    std::cout << "fault:   " << tr.fault.describe() << "\n"
              << "value:   " << tr.record.corrupted_before << " -> "
              << tr.record.corrupted_after
              << (tr.record.zero_to_one ? "  (bit 0->1)" : "  (bit 1->0)")
              << "\n"
              << "outcome: " << (tr.outcome.sdc1 ? "SDC-1" : "benign/masked")
              << (tr.outcome.sdc5 ? " SDC-5" : "")
              << (tr.outcome.sdc10 ? " SDC-10%" : "")
              << (tr.outcome.sdc20 ? " SDC-20%" : "") << "\n"
              << "output corruption: " << tr.output_corruption * 100
              << "% of final ACTs\n";
  };
  const auto res = c.run_shard(campaign_options(a), shard, &narrate);
  return res.complete ? 0 : exit_code(Errc::kInterrupted);
}

int cmd_profile(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  const auto ds = data::dataset_for(a.network);
  const auto ranges = fault::profile_block_ranges(
      m.spec, m.blob, a.dtype,
      [&ds](std::uint64_t i) {
        auto s = ds->sample(i);
        return dnn::Example{std::move(s.image), s.label};
      },
      0, a.inputs);
  Table t("fault-free value ranges: " +
          std::string(dnn::zoo::network_name(a.network)) + " " +
          std::string(numeric::dtype_name(a.dtype)));
  t.header({"layer", "min", "max"});
  for (std::size_t b = 0; b < ranges.size(); ++b)
    t.row({std::to_string(b + 1), Table::num(ranges[b].lo, 4),
           Table::num(ranges[b].hi, 4)});
  t.print(std::cout);
  return 0;
}

int cmd_info(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  const auto fp = accel::analyze(m.spec);
  std::cout << "network: " << m.spec.name << "\n"
            << "input:   " << m.spec.input.c << "x" << m.spec.input.h << "x"
            << m.spec.input.w << ", classes " << m.spec.num_classes << "\n"
            << "logical layers: " << m.spec.num_blocks() << "\n";
  Table t("MAC-layer footprints");
  t.header({"layer", "kind", "in elems", "weights", "out elems", "MACs"});
  for (const auto& f : fp)
    t.row({std::to_string(f.block), f.is_conv ? "conv" : "fc",
           std::to_string(f.input_elems), std::to_string(f.weight_elems),
           std::to_string(f.output_elems), std::to_string(f.macs)});
  t.print(std::cout);
  std::cout << "total MACs: " << accel::total_macs(fp) << "\n";
  const auto k = dnn::kernels::kernel_profile();
  std::cout << "kernels: " << k.mode << " -> FLOAT " << k.active_float
            << ", FLOAT16 " << k.active_float16 << "\n";
  return 0;
}

// ---- worker mode ---------------------------------------------------------

/// Ships the worker's node-local checkpoint file image home as a
/// kCheckpoint frame, which is also the worker's heartbeat. Writes ride
/// io_write_full, so a signal landing mid-write (EINTR) or a short pipe
/// write can never truncate a frame. A lost per-batch ship only costs a
/// retry that batch; the final ship's result decides whether the worker may
/// go on (a dead supervisor turns it into EPIPE, as SIGPIPE is ignored).
Expected<void> ship_checkpoint(int fd, const std::string& path) {
  auto bytes = fault::read_checkpoint_bytes(path);
  if (!bytes.ok()) return bytes.error();
  return fault::send_frame(fd, fault::FrameType::kCheckpoint,
                           bytes.value().data(), bytes.value().size());
}

/// Fires a fail-once fault-injection hook: creates the sentinel file first
/// so the retried worker sees it and runs clean. The exclusive create makes
/// exactly one of several workers racing to the hook fire it. Test-only
/// (see tests/test_supervisor.cpp); both hooks are inert unless their env
/// var is set.
bool fire_once(const std::optional<std::string>& sentinel) {
  if (!sentinel) return false;
  const int fd = open(sentinel->c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  close(fd);
  return true;
}

/// Moves the frame stream off stdout (stray prints from anywhere in the
/// library would corrupt frames; they go to stderr instead) and creates the
/// node scratch directory. Sets `fd` to the frame stream and returns 0, or
/// returns the exit code to die with.
int open_frame_stream(const Args& a, int& fd) {
  fd = dup(1);
  if (fd < 0) {
    std::cerr << "error: cannot dup stdout for frame I/O\n";
    return exit_code(Errc::kTransport);
  }
  dup2(2, 1);
  std::error_code ec;
  std::filesystem::create_directories(a.ckpt_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << a.ckpt_dir << ": " << ec.message()
              << "\n";
    return exit_code(Errc::kIo);
  }
  return 0;
}

/// A persistent worker: runs one shard per kInit frame on stdin until EOF
/// (exit 0). The model and the campaign's golden caches are built once, on
/// the first task. Any error ends the process with its taxonomy code.
int cmd_worker(const Args& a) {
  signal(SIGPIPE, SIG_IGN);
  if (a.ckpt_dir.empty()) usage("worker requires --ckpt-dir");
  int wire = -1;
  if (const int failed = open_frame_stream(a, wire); failed != 0) return failed;

  // Supervisor-robustness test hooks; inert without the env vars.
  const auto crash_once = env_string("DNNFI_TEST_CRASH_ONCE_FILE");
  const auto hang_once = env_string("DNNFI_TEST_HANG_ONCE_FILE");
  std::optional<std::uint64_t> poison;
  if (const auto p = env_string("DNNFI_TEST_POISON_TRIAL"))
    poison = std::stoull(*p);
  // The poison trial aborts the worker the moment its record is streamed
  // — a deterministic stand-in for a trial that reliably crashes or
  // corrupts a worker, exercising bisection + quarantine end to end.
  const fault::TrialSink abort_on_poison = [&poison](std::uint64_t trial,
                                                     const fault::TrialRecord&) {
    if (trial == *poison) std::abort();
  };

  fault::InitReader tasks(0);
  std::optional<fault::Campaign> c;
  while (true) {
    auto next = tasks.next(&g_cancel);
    if (!next.ok()) {
      std::cerr << "error: " << next.error().to_string() << "\n";
      return exit_code(next.error().code);
    }
    if (!next.value()) return 0;  // EOF: the slot has no more work
    const fault::TaskInit& task = *next.value();
    auto ckpt = fault::accept_task(task, a.trials, a.ckpt_dir);
    if (!ckpt.ok()) {
      std::cerr << "error: " << ckpt.error().to_string() << "\n";
      return exit_code(ckpt.error().code);
    }
    if (!c) {
      dnn::Model m = data::pretrained(a.network);
      c.emplace(m.spec, std::move(m.blob), a.dtype,
                data::test_examples(a.network, a.inputs));
    }

    fault::CampaignOptions opt = campaign_options(a);
    const std::uint64_t span = task.end - task.begin;
    const std::string& path = ckpt.value();
    // The campaign saves the shard checkpoint *before* invoking progress,
    // so shipping here always ships the batch that was just made durable.
    // The complete image is shipped once, below, as the task's last frame.
    opt.progress = [wire, &path, span, &crash_once,
                    &hang_once](const fault::CampaignProgress& p) {
      if (p.done < span) (void)ship_checkpoint(wire, path);
      if (p.done * 2 >= span) {
        if (fire_once(crash_once)) raise(SIGKILL);
        if (fire_once(hang_once))
          while (true) pause();  // hold the pipe open, ship no more
      }
    };

    fault::ShardSpec shard;
    shard.begin = task.begin;
    shard.end = task.end;
    shard.checkpoint = path;
    shard.batch = a.batch;
    const fault::ShardResult res =
        c->run_shard(opt, shard, poison ? &abort_on_poison : nullptr);
    // Final ship: a complete checkpoint landing with the supervisor is
    // what marks the task done.
    if (auto shipped = ship_checkpoint(wire, path); !shipped.ok()) {
      std::cerr << "error: " << shipped.error().to_string() << "\n";
      return exit_code(shipped.error().code);
    }
    if (!res.complete)
      return g_cancel.load(std::memory_order_relaxed)
                 ? exit_code(Errc::kInterrupted)
                 : 3;
  }
}

// ---- supervise mode ------------------------------------------------------

/// The path of this executable, for fork/exec'ing worker copies.
std::string self_binary(const char* argv0) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return argv0;
}

int cmd_supervise(const Args& a, const char* argv0) {
  if (a.ckpt_dir.empty()) usage("supervise requires --ckpt-dir");

  fault::SupervisorOptions so;
  so.binary = self_binary(argv0);
  so.trials = a.trials;
  so.shard_size = a.shard_size;
  so.workers = a.workers.value_or(2);
  so.heartbeat_timeout_s = a.heartbeat_timeout;
  so.shard_timeout_s = a.shard_timeout;
  so.max_attempts = a.max_attempts;
  so.backoff_base_s = a.backoff;
  so.max_quarantine = a.max_quarantine;
  so.checkpoint_dir = a.ckpt_dir;
  so.fingerprint = fault::campaign_fingerprint(
      dnn::zoo::network_spec(a.network).name, a.dtype, a.inputs,
      campaign_options(a));
  so.jitter_seed = a.seed;
  so.verbose = a.progress;
  so.cancel = &g_cancel;
  so.hosts = a.hosts;
  so.hosts_file = a.hosts_file;
  so.reload_hosts = &g_reload;
  so.host_fail_limit = a.host_fail_limit;
  so.quarantine_base_s = a.host_quarantine;
  so.worker_flags = {
      "--network", cli_network_name(a.network),
      "--dtype",   std::string(numeric::dtype_name(a.dtype)),
      "--site",    std::string(fault::site_class_name(a.site)),
      "--trials",  std::to_string(a.trials),
      "--seed",    std::to_string(a.seed),
      "--inputs",  std::to_string(a.inputs),
      "--batch",   std::to_string(a.batch),
      "--accel",   a.accel.to_string(),
      "--fault-op", a.fault_op.to_string(),
  };
  if (a.bit) {
    so.worker_flags.push_back("--bit");
    so.worker_flags.push_back(std::to_string(*a.bit));
  }
  if (a.layer) {
    so.worker_flags.push_back("--layer");
    so.worker_flags.push_back(std::to_string(*a.layer));
  }
  if (a.storage) {
    so.worker_flags.push_back("--storage");
    so.worker_flags.push_back(std::string(numeric::dtype_name(*a.storage)));
  }
  if (a.distances) so.worker_flags.push_back("--distances");
  if (!a.incremental) so.worker_flags.push_back("--no-incremental");

  auto supervised = fault::supervise(so);
  if (!supervised.ok()) {
    std::cerr << "error: " << supervised.error().to_string() << "\n";
    return exit_code(supervised.error().code);
  }
  const fault::SupervisorReport& rep = supervised.value();
  if (rep.cancelled) {
    std::cerr << "supervise: interrupted; shard checkpoints in " << a.ckpt_dir
              << " resume on the next run\n";
    return exit_code(Errc::kInterrupted);
  }

  print_summary("supervised " + std::to_string(a.trials) + " trials: " +
                    std::string(dnn::zoo::network_name(a.network)) + " " +
                    std::string(numeric::dtype_name(a.dtype)) + " " +
                    fault::site_class_name(a.site),
                rep.acc);
  std::cerr << "supervise: " << rep.workers_spawned << " worker(s), "
            << rep.retries << " retr" << (rep.retries == 1 ? "y" : "ies")
            << ", " << rep.watchdog_kills << " watchdog kill(s), "
            << rep.bisections << " bisection(s), " << rep.degradations
            << " degradation(s)\n";
  std::cerr << "fleet: " << rep.checkpoints_shipped
            << " checkpoint(s) shipped, " << rep.retries_elsewhere
            << " retry(s) elsewhere, " << rep.host_quarantines
            << " host quarantine(s)\n";
  if (!rep.aborted_trials.empty()) {
    std::cerr << "supervise: quarantined " << rep.aborted_trials.size()
              << " poison trial(s):";
    for (const std::uint64_t t : rep.aborted_trials) std::cerr << " " << t;
    std::cerr << "\n";
  }
  if (!a.out.empty())
    return emit_stats_or_fail(a.out, rep.fingerprint, rep.acc,
                              rep.masked_exits, rep.aborted_trials,
                              stats_axes(a));
  return 0;
}

// ---- merge ---------------------------------------------------------------

int cmd_merge(const Args& a) {
  if (a.files.empty()) usage("merge needs at least one checkpoint");
  std::vector<fault::NamedCheckpoint> shards;
  for (const auto& f : a.files)
    shards.push_back(fault::NamedCheckpoint{f, fault::load_shard_checkpoint(f)});
  auto merged = fault::merge_checkpoints(shards);
  if (!merged.ok()) throw fault::CheckpointError(merged.error());

  // A stratified campaign is one sequential-adaptive run, so its final
  // checkpoint IS the whole campaign: `merge` degenerates to validating it
  // and re-emitting the stats — byte-identical to the run's own --out,
  // which is what the nightly kill/resume/merge leg diffs.
  if (shards[0].ck.sampler != "uniform") {
    if (shards.size() != 1)
      throw fault::CheckpointError(
          Errc::kShardMismatch,
          "stratified campaigns don't shard; merge accepts exactly one "
          "stratified checkpoint (got " +
              std::to_string(shards.size()) + ")");
    const fault::ShardCheckpoint& ck = shards[0].ck;
    if (!ck.stratified)
      throw fault::CheckpointError(
          Errc::kCorruptData,
          "checkpoint " + a.files[0] +
              ": sampler is stratified but the per-stratum section is "
              "missing");
    print_summary("stratified campaign, " + std::to_string(ck.acc.trials()) +
                      "/" + std::to_string(ck.trials_total) +
                      " budgeted trials (pooled): " + ck.network,
                  ck.acc);
    fault::StratifiedStatsSection section;
    for (const auto& h : ck.stratified->strata)
      section.strata.push_back(stratum_stats(h.id, h.weight, h.acc));
    print_ht_summary(section, ck.acc.trials());
    if (!a.out.empty())
      return emit_stats_or_fail(
          a.out, ck.fingerprint, ck.acc, ck.masked_exits, {},
          fault::StatsAxes{ck.accel, ck.fault_op, ck.sampler}, &section);
    return 0;
  }

  const fault::ShardCheckpoint& ck = merged.value();
  std::uint64_t covered = 0;
  for (const auto& s : shards) covered += s.ck.shard_end - s.ck.shard_begin;
  if (covered != ck.trials_total)
    std::cerr << "note: shards cover " << covered << " of " << ck.trials_total
              << " trials\n";

  print_summary("merged " + std::to_string(shards.size()) + " shard(s), " +
                    std::to_string(ck.acc.trials()) + " trials: " + ck.network,
                ck.acc);
  if (!a.out.empty())
    return emit_stats_or_fail(a.out, ck.fingerprint, ck.acc, ck.masked_exits,
                              ck.aborted_trials,
                              fault::StatsAxes{ck.accel, ck.fault_op});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  install_signal_handlers();
  try {
    if (a.command == "run") return cmd_run(a, /*resume=*/false);
    if (a.command == "resume") return cmd_run(a, /*resume=*/true);
    if (a.command == "worker") return cmd_worker(a);
    if (a.command == "supervise") return cmd_supervise(a, argv[0]);
    if (a.command == "merge") return cmd_merge(a);
    if (a.command == "inject") return cmd_inject(a);
    if (a.command == "profile") return cmd_profile(a);
    if (a.command == "info") return cmd_info(a);
    usage("unknown command " + a.command);
  } catch (const fault::CheckpointError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  } catch (const SerialError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(Errc::kCorruptData);
  } catch (const std::bad_alloc&) {
    std::cerr << "error: out of memory\n";
    return exit_code(Errc::kOutOfMemory);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
