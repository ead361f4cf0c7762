// The traced run of bench_e2e: links the library and times the public
// calls of each module, one layer at a time, on a single thread so that
// self time has no contention. Spans are kept in memory and written out as
// a Chrome trace-event file when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dnnfi/fault/descriptor.h"
#include "dnnfi/numeric/dtype.h"

namespace e2e {

/// In-memory span recorder. Every span has a name, start, end, the span
/// that caused it, and the trial it belongs to (-1: not a trial's span);
/// spans of one workload share a process id in the written trace.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans recorded from now on belong to process `pid`, shown as `name`.
  void begin_process(int pid, const std::string& name);

  /// Starts a span now; returns its id for close() and for children.
  int open(const char* name, int parent = -1, std::int64_t trial = -1);
  void close(int id);

  /// Records an already finished span; returns its id.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t trial);

  /// Writes the spans as a Chrome trace-event JSON file (chrome://tracing,
  /// ui.perfetto.dev). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::int64_t trial;
    int pid;
  };
  struct Process {
    int pid;
    std::string name;
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Process> processes_;
  int pid_ = 1;
};

/// One measured per-layer value.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the traced run probes for one workload.
struct ProbeConfig {
  dnnfi::numeric::DType dtype = dnnfi::numeric::DType::kFloat16;
  dnnfi::fault::SiteClass site = dnnfi::fault::SiteClass::kDatapathLatch;
  std::uint64_t seed = 2017;
  std::uint64_t probe_trials = 0;  ///< per-trial pipeline probe
  std::uint64_t strat_budget = 0;  ///< run_stratified budget at CI 1e-3
  std::uint64_t sup_trials = 0;    ///< supervise() probe
  bool fleet = false;              ///< supervise over two localhost nodes
  int threads = 4;  ///< compute threads of the multi-threaded comparison
  std::string campaign_bin;
  std::string model_dir;
  std::string work_dir;  ///< scratch; emptied first
};

struct ProbeReport {
  std::vector<Metric> metrics;
  int stages = 0;  ///< checked stages run
  /// Failed checks: probe counts that differ from Campaign::run_shard, a
  /// supervised campaign that failed or disagrees with the in-process one.
  std::vector<std::string> failures;
};

/// Runs every layer probe for one workload. Throws on I/O or model errors.
ProbeReport run_probe(const ProbeConfig& cfg, SpanLog& log);

}  // namespace e2e
