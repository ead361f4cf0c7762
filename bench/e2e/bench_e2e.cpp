// bench_e2e: end-to-end fault-injection campaign benchmark, with a separate
// per-layer traced run.
//
// What a dnnfi user waits for is the wall-clock time of a whole campaign.
// The untraced mode therefore times complete dnnfi_campaign CLI invocations
// from outside: this one benchmark process fork/execs the CLI once per run.
// Wall time is steady_clock around fork -> wait4, CPU time is the
// RUSAGE_CHILDREN delta of the process tree, and peak RSS is the wait4
// ru_maxrss (the largest of any process in the tree). Every run's stats file
// is checked byte for byte before its timing counts. The traced mode
// (probe.cpp) links the library and times each module's public calls, one
// layer at a time. README.md lists the workloads and metrics and explains
// how to read --check.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//       One workload: untraced runs repeated for S seconds (--trace 0), or
//       its traced run (--trace 1). The last stdout line is one JSON object
//       with `correct`, `attempted`, `failed` and `metrics`.
//   bench_e2e [--seed N] [--out FILE] [--check BASELINE]
//       A full set: every workload, 5 reps interleaved round-robin so machine
//       drift hits every workload alike, then each traced run. --check
//       compares every (metric, workload) median with a baseline report,
//       using the bounds in BENCHMARK.json; it exits 1 on any "worse".
//   bench_e2e --smoke [--seed N] [--out FILE]
//       A full set at tiny trial counts, one rep, asserting that every
//       metric BENCHMARK.json names is emitted, finite and in its unit, and
//       that the trace file parses.
//
// Exit status: 0 success, 1 wrong outputs / failed check, 2 usage error.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/serialize.h"
#include "dnnfi/dnn/zoo.h"
#include "json.h"
#include "probe.h"
#include "stats.h"

extern char** environ;

namespace {

using namespace dnnfi;
namespace fs = std::filesystem;
using e2e::Json;
using e2e::json_number;
using e2e::json_string;
using e2e::kNaN;
using e2e::Summary;
using Clock = std::chrono::steady_clock;

const std::string kRoot = DNNFI_E2E_ROOT;
const std::string kCampaignBin = DNNFI_E2E_CAMPAIGN;
const std::string kWorkDir = DNNFI_E2E_WORK;

/// Compute threads every workload uses in total (capped at nproc).
constexpr int kThreads = 4;
/// `--trials 1` runs per workload whose median is setup_s.
constexpr int kSetupRuns = 15;
/// Untraced reps per workload in a full set (one under --smoke).
constexpr int kSetReps = 5;
/// Untraced reps per workload in --workload mode: at least this many, then
/// more until --seconds have passed.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;
/// A CLI run that takes longer than this is killed and counts as failed.
constexpr unsigned kRunTimeoutS = 60;
/// --smoke divides every trial count by this.
constexpr std::uint64_t kSmokeDivisor = 16;
constexpr const char* kReferenceWorkload = "uniform-alexnet-f16";

enum class Mode { kRun, kStratified, kSupervise, kFleet };

/// One campaign configuration. Every workload runs AlexNet-S on 8 golden
/// inputs with 4 compute threads in total. README.md gives the reasons.
struct Workload {
  const char* name;
  Mode mode;
  numeric::DType dtype;
  fault::SiteClass site;
  std::uint64_t trials;  ///< --trials; the trial budget when stratified
  // Traced-run sizes (probe.h).
  std::uint64_t probe_trials;
  std::uint64_t strat_budget;
  std::uint64_t sup_trials;
};

constexpr numeric::DType kF16 = numeric::DType::kFloat16;
constexpr fault::SiteClass kDatapath = fault::SiteClass::kDatapathLatch;

constexpr Workload kWorkloads[] = {
    {"uniform-alexnet-f16", Mode::kRun, kF16, kDatapath, 64000, 20000,
     4000000, 16000},
    {"gbuf-alexnet-f16", Mode::kRun, kF16, fault::SiteClass::kGlobalBuffer,
     5000, 2000, 1000, 1250},
    {"fx32-alexnet", Mode::kRun, numeric::DType::kFx32r10, kDatapath, 8000,
     2000, 1000, 1000},
    {"stratified-alexnet-f16", Mode::kStratified, kF16, kDatapath, 4000000,
     20000, 4000000, 16000},
    {"supervise-alexnet-f16", Mode::kSupervise, kF16, kDatapath, 64000,
     20000, 4000000, 16000},
    {"fleet-alexnet-f16", Mode::kFleet, kF16, kDatapath, 64000, 20000,
     4000000, 16000},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

bool supervised(const Workload& w) {
  return w.mode == Mode::kSupervise || w.mode == Mode::kFleet;
}

/// Supervised runs must reproduce the in-process uniform campaign exactly.
std::string reference_key(const Workload& w) {
  return supervised(w) ? kReferenceWorkload : w.name;
}

struct Options {
  std::string workload;  ///< empty: the full set
  std::uint64_t seed = 2017;
  double seconds = 15;
  bool trace = false;
  std::string out;
  std::string check;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n\n"
            << "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out FILE]\n"
               "       bench_e2e [--seed N] [--out FILE] "
               "[--check BASELINE]\n"
               "       bench_e2e --smoke [--seed N] [--out FILE]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        if (find_workload(val) == nullptr) usage("unknown workload " + val);
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (key == "--out") {
        o.out = val;
      } else if (key == "--check") {
        o.check = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (o.smoke && !o.workload.empty()) usage("--smoke runs every workload");
  return o;
}

// ---- running one CLI campaign ------------------------------------------------

/// Process group of the CLI run in flight; SIGALRM kills it on timeout.
volatile sig_atomic_t g_run_pgid = 0;
volatile sig_atomic_t g_timed_out = 0;

void on_alarm(int) {
  const pid_t pgid = g_run_pgid;
  if (pgid > 0) {
    g_timed_out = 1;
    kill(-pgid, SIGKILL);
  }
}

struct Proc {
  bool ok = false;  ///< exited 0
  std::string what;  ///< how it ended, when not ok
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mib = 0;
};

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Runs `args` (args[0] is the binary) in its own process group with
/// DNNFI_THREADS=`threads`, stdout and stderr appended to `log_path`, and
/// waits for it and every process it left behind.
Proc run_process(const std::vector<std::string>& args, int threads,
                 const std::string& log_path) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "DNNFI_THREADS=", 14) != 0) env.emplace_back(*e);
  env.push_back("DNNFI_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  Proc r;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  rusage before{};
  getrusage(RUSAGE_CHILDREN, &before);
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    setpgid(0, 0);
    if (log_fd >= 0) {
      dup2(log_fd, 1);
      dup2(log_fd, 2);
    }
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  if (log_fd >= 0) close(log_fd);
  if (pid < 0) {
    r.what = std::string("fork failed: ") + std::strerror(errno);
    return r;
  }
  setpgid(pid, pid);  // also here, so the group exists before any kill
  g_timed_out = 0;
  g_run_pgid = pid;
  alarm(kRunTimeoutS);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const auto t1 = Clock::now();
  alarm(0);
  g_run_pgid = 0;

  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!r.ok) {
    // Workers of a crashed or killed supervisor were reparented to us (we
    // are a subreaper) and still carry its process group.
    kill(-pid, SIGKILL);
    while (true) {
      const pid_t w = waitpid(-pid, nullptr, 0);
      if (w > 0 || (w < 0 && errno == EINTR)) continue;
      break;
    }
    r.what = g_timed_out != 0 ? "timed out after " +
                                    std::to_string(kRunTimeoutS) + " s"
             : WIFSIGNALED(status)
                 ? std::string("killed by signal ") + strsignal(WTERMSIG(status))
                 : "exit status " + std::to_string(WEXITSTATUS(status));
  }
  rusage after{};
  getrusage(RUSAGE_CHILDREN, &after);
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.cpu_s = seconds_of(after.ru_utime) - seconds_of(before.ru_utime) +
            seconds_of(after.ru_stime) - seconds_of(before.ru_stime);
  r.rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The `trials <n>` line of a stats file: trials actually executed.
std::uint64_t stats_trials(const std::string& stats) {
  const auto at = stats.find("\ntrials ");
  return at == std::string::npos ? 0 : std::stoull(stats.substr(at + 8));
}

// ---- the benchmark -----------------------------------------------------------

/// Everything measured for one workload.
struct WorkloadRun {
  const Workload* w = nullptr;
  std::vector<double> trials_per_s, setup_s, cpu_s_per_ktrial, peak_rss_mb;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  bool traced = false;
  std::vector<e2e::Metric> layers;
};

/// The end-to-end metrics and the samples each is summarized from.
struct E2eMetric {
  const char* name;
  const char* unit;
  std::vector<double> WorkloadRun::*samples;
};
constexpr E2eMetric kE2eMetrics[] = {
    {"trials_per_s", "trials/s", &WorkloadRun::trials_per_s},
    {"setup_s", "s", &WorkloadRun::setup_s},
    {"cpu_s_per_ktrial", "s/ktrial", &WorkloadRun::cpu_s_per_ktrial},
    {"peak_rss_mb", "MiB", &WorkloadRun::peak_rss_mb},
};

class Bench {
 public:
  explicit Bench(const Options& o)
      : o_(o),
        threads_(std::min<int>(
            kThreads,
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())))) {}

  int threads() const { return threads_; }

  /// Loads the checked-in reference stats for this seed, if any. Smoke
  /// runs use other trial counts, so they only check self-consistency.
  void load_expected(const Workload& w) {
    if (o_.smoke) return;
    const std::string path = kRoot + "/bench/e2e/expected/seed" +
                             std::to_string(o_.seed) + "/" + reference_key(w) +
                             ".stats";
    if (fs::exists(path)) references_.emplace(reference_key(w), read_file(path));
  }

  /// The set-up runs: `--trials 1` of the in-process campaign the workload
  /// reproduces. For supervised workloads that is the uniform `run`,
  /// because `supervise --trials 1` mostly times the supervisor's reap
  /// poll, which either catches the lone worker's exit at once or sleeps a
  /// fixed 200 ms, and which one is decided per benchmark process.
  void setup(WorkloadRun& r) {
    const Workload& in_process = *find_workload(reference_key(*r.w));
    const int runs = o_.smoke ? 3 : kSetupRuns;
    for (int i = 0; i < runs; ++i) {
      Proc p;
      std::string stats;
      if (cli(r, in_process, 1, "setup", p, stats))
        r.setup_s.push_back(p.wall_s);
    }
  }

  /// One run at the workload's full trial count, its stats checked against
  /// the reference; its timings count when `timed`. The first heavy run
  /// after light work is often slow (the host ramps up), so each workload
  /// starts with an untimed warm-up run.
  void rep(WorkloadRun& r, const std::string& tag, bool timed) {
    const std::string key = reference_key(*r.w);
    if (references_.count(key) == 0 && key != r.w->name) {
      // A supervised workload run on its own needs the in-process result.
      Proc p;
      std::string stats;
      if (cli(r, *find_workload(key), trials(*find_workload(key)),
              "reference", p, stats))
        references_.emplace(key, stats);
    }
    Proc p;
    std::string stats;
    if (!cli(r, *r.w, trials(*r.w), tag, p, stats)) return;
    const auto [ref, fresh] = references_.emplace(key, stats);
    if (!fresh && ref->second != stats) {
      ++r.failed;
      r.problems.push_back(tag + ": stats differ from the " + key +
                           " reference");
      return;
    }
    if (!timed) return;
    const auto done = static_cast<double>(stats_trials(stats));
    r.trials_per_s.push_back(done / p.wall_s);
    r.cpu_s_per_ktrial.push_back(p.cpu_s / done * 1000.0);
    r.peak_rss_mb.push_back(p.rss_mib);
  }

  void trace(WorkloadRun& r, e2e::SpanLog& log, int pid) {
    const Workload& w = *r.w;
    e2e::ProbeConfig pc;
    pc.dtype = w.dtype;
    pc.site = w.site;
    pc.seed = o_.seed;
    pc.probe_trials = scaled(w.probe_trials);
    pc.strat_budget = scaled(w.strat_budget);
    pc.sup_trials = scaled(w.sup_trials);
    pc.fleet = w.mode == Mode::kFleet;
    pc.threads = threads_;
    pc.campaign_bin = kCampaignBin;
    pc.model_dir = kRoot + "/models";
    pc.work_dir = kWorkDir + "/" + w.name + "/trace";
    log.begin_process(pid, w.name);
    r.traced = true;
    try {
      e2e::ProbeReport probe = e2e::run_probe(pc, log);
      r.layers = std::move(probe.metrics);
      r.attempted += probe.stages;
      r.failed += static_cast<int>(probe.failures.size());
      for (std::string& f : probe.failures) r.problems.push_back(std::move(f));
    } catch (const std::exception& e) {
      ++r.attempted;
      ++r.failed;
      r.problems.push_back(std::string("traced run: ") + e.what());
    }
  }

 private:
  std::uint64_t scaled(std::uint64_t n) const {
    return o_.smoke ? std::max<std::uint64_t>(1, n / kSmokeDivisor) : n;
  }
  std::uint64_t trials(const Workload& w) const { return scaled(w.trials); }

  std::vector<std::string> cli_args(const Workload& w, std::uint64_t trials,
                                    const std::string& out,
                                    const std::string& ckpt_dir) const {
    std::vector<std::string> a = {
        kCampaignBin, supervised(w) ? "supervise" : "run",
        "--network", "alexnet",
        "--dtype", std::string(numeric::dtype_name(w.dtype)),
        "--site", fault::site_class_name(w.site),
        "--trials", std::to_string(trials),
        "--inputs", "8",
        "--seed", std::to_string(o_.seed),
        "--no-progress", "--out", out};
    if (w.mode == Mode::kStratified)
      a.insert(a.end(), {"--sampler", "stratified", "--ci-target", "5e-4"});
    if (supervised(w)) {
      // 16 shards of 10 checkpointed batches each, on two worker slots.
      a.insert(a.end(),
               {"--shard-size", std::to_string(std::max<std::uint64_t>(1, trials / 16)),
                "--batch", std::to_string(std::max<std::uint64_t>(1, trials / 160)),
                "--ckpt-dir", ckpt_dir});
      if (w.mode == Mode::kFleet)
        a.insert(a.end(), {"--hosts", "localhost:1,localhost:1"});
      else
        a.insert(a.end(), {"--workers", "2"});
    }
    return a;
  }

  /// One CLI invocation; counts the attempt, and a failure, on `r`.
  bool cli(WorkloadRun& r, const Workload& w, std::uint64_t trials,
           const std::string& tag, Proc& p, std::string& stats) {
    const std::string dir = kWorkDir + "/" + r.w->name;
    fs::create_directories(dir);
    const std::string out = dir + "/" + tag + ".stats";
    const std::string ckpt = dir + "/" + tag + ".ckpt";
    fs::remove(out);
    fs::remove_all(ckpt);
    p = run_process(cli_args(w, trials, out, ckpt),
                    supervised(w) ? std::max(1, threads_ / 2) : threads_,
                    dir + "/cli.log");
    fs::remove_all(ckpt);
    ++r.attempted;
    stats = read_file(out);
    if (p.ok && !stats.empty()) return true;
    ++r.failed;
    r.problems.push_back(tag + ": " + (p.ok ? "no stats file" : p.what) +
                         " (log: " + dir + "/cli.log)");
    return false;
  }

  const Options& o_;
  const int threads_;
  std::map<std::string, std::string> references_;
};

/// Checks that every model file data::pretrained would read loads through
/// dnn::load_model with the topology the code expects, so no CLI run can
/// silently retrain. Runs in a child process, which keeps the models out of
/// this process's memory: forked CLI runs inherit its peak RSS.
bool models_load(const std::string& dir) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid == 0) {
    int bad = 0;
    for (const auto id : dnn::zoo::kAllNetworks) {
      const std::string path = dir + "/" + dnn::zoo::model_filename(id);
      try {
        if (!dnn::is_model_file(path) ||
            !(dnn::load_model(path).spec == dnn::zoo::network_spec(id))) {
          std::cerr << "error: " << path
                    << " is missing or holds another topology\n";
          ++bad;
        }
      } catch (const std::exception& e) {
        std::cerr << "error: " << path << ": " << e.what() << "\n";
        ++bad;
      }
    }
    _exit(bad == 0 ? 0 : 1);
  }
  if (pid < 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- reporting ---------------------------------------------------------------

bool correct(const WorkloadRun& r) { return r.failed == 0 && r.attempted > 0; }

std::string summary_json(const Summary& s, const char* unit) {
  return "{\"unit\":" + json_string(unit) +
         ",\"median\":" + json_number(s.median) +
         ",\"q1\":" + json_number(s.q1) + ",\"q3\":" + json_number(s.q3) +
         ",\"min\":" + json_number(s.min) + ",\"max\":" + json_number(s.max) +
         ",\"n\":" + std::to_string(s.n) + "}";
}

std::string kernels_json() {
  const auto prof = dnn::kernels::kernel_profile();
  return "{\"mode\":" + json_string(prof.mode) +
         ",\"float\":" + json_string(prof.active_float) +
         ",\"float16\":" + json_string(prof.active_float16) + "}";
}

std::string report_json(const Options& o, const std::vector<WorkloadRun>& runs,
                        int threads, const std::string& trace_file) {
  std::ostringstream j;
  j << "{\"bench\":\"bench_e2e\",\"seed\":" << o.seed
    << ",\"smoke\":" << (o.smoke ? "true" : "false")
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"threads\":" << threads << ",\"kernels\":" << kernels_json()
    << ",\"trace_file\":" << json_string(trace_file) << ",\"workloads\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& r = runs[i];
    j << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(r.w->name)
      << ",\"correct\":" << (correct(r) ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"failed_frac\":"
      << json_number(r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 1.0)
      << ",\"problems\":[";
    for (std::size_t k = 0; k < r.problems.size(); ++k)
      j << (k == 0 ? "" : ",") << json_string(r.problems[k]);
    j << "]";
    // A workload with a wrong output or a failed run reports no timings.
    if (correct(r) && !r.trials_per_s.empty()) {
      j << ",\"e2e\":{";
      bool first = true;
      for (const E2eMetric& m : kE2eMetrics) {
        j << (first ? "" : ",") << json_string(m.name) << ":"
          << summary_json(e2e::summarize(r.*m.samples), m.unit);
        first = false;
      }
      j << "}";
    }
    if (correct(r) && r.traced) {
      j << ",\"layers\":{";
      for (std::size_t k = 0; k < r.layers.size(); ++k)
        j << (k == 0 ? "" : ",") << json_string(r.layers[k].name)
          << ":{\"value\":" << json_number(r.layers[k].value)
          << ",\"unit\":" << json_string(r.layers[k].unit) << "}";
      j << "}";
    }
    j << "}";
  }
  j << "\n]}\n";
  return j.str();
}

void print_run(const WorkloadRun& r) {
  std::printf("%s: %d run(s), %d failed\n", r.w->name, r.attempted, r.failed);
  for (const std::string& p : r.problems)
    std::printf("  FAILED %s\n", p.c_str());
  if (!correct(r)) return;
  for (const E2eMetric& m : kE2eMetrics) {
    const Summary s = e2e::summarize(r.*m.samples);
    if (s.n == 0) continue;
    std::printf("  %-28s %14.6g %-9s (median of %zu; q1 %.6g, q3 %.6g)\n",
                m.name, s.median, m.unit, s.n, s.q1, s.q3);
  }
  for (const e2e::Metric& m : r.layers)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// The one-line result of --workload mode: every end-to-end metric
/// (untraced) or every per-layer metric (traced).
std::string result_line(const WorkloadRun& r, bool traced) {
  std::string metrics;
  const auto add = [&metrics](const std::string& name, double v,
                              const std::string& unit) {
    metrics += (metrics.empty() ? "" : ",") + json_string(name) +
               ":{\"value\":" + json_number(v) + ",\"unit\":" +
               json_string(unit) + "}";
  };
  if (correct(r)) {
    if (traced) {
      for (const e2e::Metric& m : r.layers) add(m.name, m.value, m.unit);
    } else {
      for (const E2eMetric& m : kE2eMetrics)
        add(m.name, e2e::median(r.*m.samples), m.unit);
    }
  }
  return std::string("{\"correct\":") + (correct(r) ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{" +
         metrics + "}}";
}

bool write_text(const std::string& path, const std::string& text) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

// ---- --check and --smoke -----------------------------------------------------

std::optional<Json> read_benchmark_json() {
  std::string err;
  auto b = e2e::read_json_file(kRoot + "/BENCHMARK.json", &err);
  if (!b) std::cerr << "error: " << err << "\n";
  return b;
}

/// The elements of an array member, or none when it is absent.
const std::vector<Json>& items(const Json* list) {
  static const std::vector<Json> none;
  return list != nullptr ? list->arr : none;
}

const Json* find_named(const Json* list, const std::string& name) {
  for (const Json& item : items(list))
    if (item.text("name") == name) return &item;
  return nullptr;
}

/// Compares every (end-to-end metric, workload) median with the baseline
/// report. A metric is worse or better when its median moved by more than
/// its BENCHMARK.json bound, and unresolved when either side's
/// interquartile spread is wider than the bound, or when the machines are
/// not comparable (nproc or active kernel sets differ). Returns false on
/// any "worse".
bool check_against(const std::string& path,
                   const std::vector<WorkloadRun>& runs) {
  std::string err;
  const auto base = e2e::read_json_file(path, &err);
  const auto bench = read_benchmark_json();
  if (!base || !bench) {
    if (!base) std::cerr << "error: " << err << "\n";
    return false;
  }
  const auto prof = dnn::kernels::kernel_profile();
  const Json* bk = base->find("kernels");
  const bool comparable =
      base->num("nproc") ==
          static_cast<double>(std::thread::hardware_concurrency()) &&
      bk != nullptr && bk->text("float") == prof.active_float &&
      bk->text("float16") == prof.active_float16;
  if (!comparable)
    std::printf("check: baseline %s ran with another nproc or kernel set; "
                "every row is unresolved\n",
                path.c_str());
  std::printf("%-24s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "baseline", "current", "change", "bound", "verdict");
  bool worse = false;
  const Json* end_to_end = bench->find("end_to_end");
  for (const WorkloadRun& r : runs) {
    const Json* bw = find_named(base->find("workloads"), r.w->name);
    const Json* be = bw != nullptr ? bw->find("e2e") : nullptr;
    for (const Json& m : items(end_to_end)) {
      const std::string name = m.text("name");
      const double bound = m.num("bound");
      const bool lower_better = m.text("better") == "lower";
      const E2eMetric* em = nullptr;
      for (const E2eMetric& e : kE2eMetrics)
        if (name == e.name) em = &e;
      const Summary cur =
          em != nullptr ? e2e::summarize(r.*em->samples) : Summary{};
      const Json* b = be != nullptr ? be->find(name) : nullptr;
      const double b_med = b != nullptr ? b->num("median") : kNaN;
      const double b_spread =
          b != nullptr ? (b->num("q3") - b->num("q1")) / b_med : kNaN;
      const double change = (cur.median - b_med) / b_med;
      const double loss = lower_better ? change : -change;
      std::string verdict;
      if (!comparable) {
        verdict = "unresolved";
      } else if (!correct(r)) {
        verdict = "worse (failed runs)";
        worse = true;
      } else if (!std::isfinite(change) || !std::isfinite(b_spread)) {
        verdict = "unresolved (no data)";
      } else if (std::max(cur.spread(), b_spread) > bound) {
        verdict = "unresolved (spread)";
      } else if (loss > bound) {
        verdict = "worse";
        worse = true;
      } else {
        verdict = loss < -bound ? "better" : "same";
      }
      std::printf("%-24s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
                  r.w->name, name.c_str(), b_med, cur.median, change * 100,
                  bound * 100, verdict.c_str());
    }
  }
  return !worse;
}

/// --smoke assertions on the written report and trace.
bool smoke_asserts(const std::string& report_path,
                   const std::string& trace_path) {
  std::string err;
  const auto bench = read_benchmark_json();
  const auto report = e2e::read_json_file(report_path, &err);
  if (!bench || !report) {
    if (!report) std::cerr << "smoke: " << err << "\n";
    return false;
  }
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "smoke: " << what << "\n";
    ok = false;
  };
  const Json* workloads = report->find("workloads");
  for (const Workload& w : kWorkloads) {
    const Json* rw = find_named(workloads, w.name);
    const Json* ok_field = rw != nullptr ? rw->find("correct") : nullptr;
    if (ok_field == nullptr || !ok_field->boolean) {
      fail(std::string(w.name) + ": missing or not correct");
      continue;
    }
    for (const auto& [section, group, value] :
         {std::tuple{"end_to_end", "e2e", "median"},
          std::tuple{"per_layer", "layers", "value"}}) {
      for (const Json& m : items(bench->find(section))) {
        const Json* g = rw->find(group);
        const Json* got = g != nullptr ? g->find(m.text("name")) : nullptr;
        if (got == nullptr)
          fail(std::string(w.name) + ": " + m.text("name") + " not emitted");
        else if (!std::isfinite(got->num(value)))
          fail(std::string(w.name) + ": " + m.text("name") + " is not finite");
        else if (got->text("unit") != m.text("unit"))
          fail(std::string(w.name) + ": " + m.text("name") + " has unit '" +
               got->text("unit") + "', BENCHMARK.json says '" +
               m.text("unit") + "'");
      }
    }
  }
  const auto trace = e2e::read_json_file(trace_path, &err);
  const Json* events = trace ? trace->find("traceEvents") : nullptr;
  if (events == nullptr || events->arr.empty())
    fail("trace file " + trace_path + " does not parse or has no events" +
         (trace ? "" : ": " + err));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // Orphaned workers of a killed supervisor are reparented to us, so every
  // process a run starts can be reaped.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  struct sigaction sa = {};
  sa.sa_handler = on_alarm;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  setenv("DNNFI_MODEL_DIR", (kRoot + "/models").c_str(), 1);

  if (!models_load(kRoot + "/models")) {
    std::cerr << "error: model files do not load; refusing to run campaigns "
                 "that would retrain\n";
    return 1;
  }

  const std::string tag =
      o.workload.empty() ? (o.smoke ? "smoke" : "set")
                         : o.workload + (o.trace ? "-trace" : "");
  const std::string out =
      o.out.empty() ? kWorkDir + "/bench_e2e-" + tag + ".json" : o.out;
  const std::string trace_path =
      out.substr(0, out.size() - (out.ends_with(".json") ? 5 : 0)) +
      ".trace.json";

  Bench bench(o);
  std::vector<WorkloadRun> runs;
  for (const Workload& w : kWorkloads) {
    if (!o.workload.empty() && o.workload != w.name) continue;
    runs.push_back(WorkloadRun{});
    runs.back().w = &w;
    bench.load_expected(w);
  }

  const bool e2e_runs = o.workload.empty() || !o.trace;
  const bool traced_runs = o.workload.empty() || o.trace;
  if (e2e_runs) {
    for (WorkloadRun& r : runs) bench.setup(r);
    // In --workload mode the warm-up counts toward --seconds.
    const auto start = Clock::now();
    for (WorkloadRun& r : runs) bench.rep(r, "warmup", false);
    if (o.workload.empty()) {
      for (int rep = 0; rep < (o.smoke ? 1 : kSetReps); ++rep)
        for (WorkloadRun& r : runs) bench.rep(r, "rep" + std::to_string(rep), true);
    } else {
      for (int rep = 0; rep < kMaxReps; ++rep) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (rep >= kMinReps && elapsed >= o.seconds) break;
        bench.rep(runs[0], "rep" + std::to_string(rep), true);
      }
    }
  }
  e2e::SpanLog log;
  if (traced_runs) {
    for (std::size_t i = 0; i < runs.size(); ++i)
      bench.trace(runs[i], log, static_cast<int>(i) + 1);
    if (!log.write_chrome(trace_path))
      std::cerr << "warning: could not write " << trace_path << "\n";
  }

  bool ok = true;
  for (const WorkloadRun& r : runs) {
    print_run(r);
    ok = ok && correct(r);
  }
  const std::string trace_leaf =
      traced_runs ? fs::path(trace_path).filename().string() : "";
  if (!write_text(out, report_json(o, runs, bench.threads(), trace_leaf)))
    std::cerr << "warning: could not write " << out << "\n";
  std::printf("report: %s\n", out.c_str());
  if (traced_runs) std::printf("trace: %s\n", trace_path.c_str());

  if (!o.check.empty()) ok = check_against(o.check, runs) && ok;
  if (o.smoke) ok = smoke_asserts(out, trace_path) && ok;
  if (!o.workload.empty()) std::printf("%s\n", result_line(runs[0], o.trace).c_str());
  return ok ? 0 : 1;
}
