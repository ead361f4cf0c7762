// Fault-injection campaigns: N independent trials of (sample site -> inject
// -> classify), run in parallel with per-trial deterministic RNG streams.
// One Campaign instance binds a (topology, weights, dtype, input set) tuple
// and precomputes the fault-free activation caches every trial replays
// from and compares against (incremental replay, DESIGN.md §8).
//
// Campaigns execute as *shards*: trial indices [begin, end) of the logical
// [0, trials) campaign. Trial t's RNG stream is derive_stream(seed, t) and
// its input is t % num_inputs, both functions of the global index alone, so
// any shard partition reproduces exactly the trials a monolithic run would
// — the union of shard aggregates is bit-identical to the single-process
// result, regardless of thread count, batching, or checkpoint/resume
// boundaries (see DESIGN.md §7 and tests/test_campaign_determinism.cpp).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dnnfi/common/thread_pool.h"
#include "dnnfi/dnn/train.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/accumulator.h"
#include "dnnfi/fault/adaptive_sampler.h"
#include "dnnfi/fault/descriptor.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/outcome.h"
#include "dnnfi/fault/sampler.h"
#include "dnnfi/fault/strata.h"

namespace dnnfi::fault {

/// How trials are drawn from the site population.
enum class SamplerMode : std::uint8_t {
  kUniform,     ///< i.i.d. uniform draws; trial t = derive_stream(seed, t)
  kStratified,  ///< adaptive stratified sampling (strata.h, DESIGN.md §12)
};

/// Per-layer value bounds used by symptom detectors: block -> [lo, hi].
struct BlockRange {
  double lo = 0;
  double hi = 0;
};

/// Periodic progress report for long campaigns (one per completed batch).
struct CampaignProgress {
  std::uint64_t done = 0;         ///< trials folded so far (resumed included)
  std::uint64_t begin = 0;        ///< shard range
  std::uint64_t end = 0;
  double trials_per_sec = 0;      ///< throughput of this process, this run
  double eta_seconds = 0;         ///< remaining / trials_per_sec
  Estimate sdc1;                  ///< running SDC-1 estimate (Wilson)
  /// Trials (resumed included) that early-exited because a replayed layer
  /// matched the fault-free cache bit-for-bit. 0 when incremental replay
  /// is disabled.
  std::uint64_t masked_exits = 0;
  double masked_exit_rate = 0;    ///< masked_exits / done
};

/// Campaign parameters.
struct CampaignOptions {
  SiteClass site = SiteClass::kDatapathLatch;
  std::size_t trials = 300;
  std::uint64_t seed = 2017;
  SampleConstraint constraint;

  /// Accelerator geometry trials sample from and lower through. The default
  /// (Eyeriss) reproduces the paper's site inventory — and the pre-geometry
  /// campaign bytes — exactly; `site` must be in the geometry's inventory.
  accel::AcceleratorConfig accel;

  /// Optional symptom detector: returns true when `value` observed at the
  /// end of logical layer `block` is anomalous. A trial is "detected" when
  /// any checked activation fires. Checks run at block-end layers only
  /// (where fmaps land in the global buffer), mirroring the paper's SED
  /// deployment (§6.2).
  std::function<bool(int block, double value)> detector;

  /// Record per-block Euclidean distance between faulty and golden
  /// activations (Fig 7). Costs one pass over every recomputed layer.
  bool record_block_distances = false;

  /// Incremental fault replay: seed each trial from the fault-free
  /// activation cache at the injection layer, recompute each replayed
  /// layer only over its dirty region (the outputs the fault can reach; the
  /// rest is copied from the cache, DESIGN.md §8), and stop as soon as a
  /// replayed layer matches the cache bit-for-bit (the fault was masked),
  /// emitting the cached final logits. Per-trial results are byte-identical
  /// either way — outputs outside the dirty region read only fault-free
  /// operands, and a masked trial's suffix is a deterministic function of
  /// state identical to the fault-free run — so this is purely a speed knob
  /// (tests/test_incremental_replay.cpp asserts the equivalence). Off, every
  /// replayed layer runs whole: the independent full-replay reference. Not
  /// part of the campaign fingerprint for the same reason.
  bool incremental_replay = true;

  /// Worker pool override. Null uses ThreadPool::global(). Results are
  /// bit-identical for any pool size — the determinism tests run the same
  /// campaign at 1, 2, and 8 threads and compare bytes.
  ThreadPool* pool = nullptr;

  /// Invoked after every completed batch with throughput, ETA, and the
  /// running SDC-1 estimate. Called on the campaign-driving thread.
  std::function<void(const CampaignProgress&)> progress;

  /// Cooperative cancellation (graceful SIGINT/SIGTERM shutdown): checked
  /// between batches. When it reads true the in-flight batches finish (a
  /// uniform run keeps one batch in flight ahead of the one it folds), are
  /// folded and checkpointed (if checkpointing), and run_shard returns an
  /// incomplete result — exactly like stop_after, but signal-driven. Typically points
  /// at an atomic set from a signal handler; null disables the check.
  const std::atomic<bool>* cancel = nullptr;

  /// Trial-drawing strategy. kUniform is the seed semantics: every output
  /// byte, fingerprint, and checkpoint is unchanged from before the sampler
  /// axis existed. kStratified runs the adaptive campaign (run_stratified);
  /// `trials` becomes the trial *budget* rather than an exact count.
  SamplerMode sampler = SamplerMode::kUniform;

  /// Controller knobs; read only under kStratified.
  StratifiedOptions stratified;
};

/// The sampler axis's identity string: "uniform", or the stratified
/// options' canonical form. Folded into the campaign fingerprint only when
/// non-default (mirroring the geometry and fault-op axes), carried in
/// checkpoints and non-default stats headers.
std::string sampler_id(const CampaignOptions& opt);

/// Fold of every option that changes trial outcomes — seed, trial count,
/// site, constraint, dtype, topology, detector presence — used to refuse
/// resuming/merging under mismatched configurations: equal fingerprints
/// promise equal trials. Needs no model load.
std::uint64_t campaign_fingerprint(const std::string& network,
                                   numeric::DType dtype,
                                   std::size_t num_inputs,
                                   const CampaignOptions& opt);

/// One shard of a campaign: which trial-index range to run and how to
/// persist it.
struct ShardSpec {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive; 0 means "opt.trials" (whole range)

  /// Checkpoint file. Empty disables checkpointing. When the file already
  /// exists it is loaded, validated against the campaign fingerprint, and
  /// the run resumes from its next_trial cursor.
  std::string checkpoint;

  /// Trials per batch: the granularity of checkpoints, progress callbacks,
  /// stop_after and cancellation, and the size of the record buffer each
  /// batch folds from. Batching never changes results.
  std::size_t batch = 512;

  /// Testing/preemption hook: stop cleanly (checkpoint written, incomplete
  /// result returned) after at least this many *new* trials. 0 = run to
  /// the end of the shard.
  std::uint64_t stop_after = 0;
};

/// Streaming consumer of per-trial records, invoked in ascending trial
/// order after each batch completes. Optional: campaigns that only need
/// aggregates skip record materialization entirely.
using TrialSink = std::function<void(std::uint64_t trial, const TrialRecord&)>;

/// What a shard run produced.
struct ShardResult {
  OutcomeAccumulator acc;
  std::uint64_t next_trial = 0;  ///< == shard end iff complete
  bool complete = false;
  bool resumed = false;  ///< a checkpoint was loaded before running
  /// Trials that early-exited on an exact cache match (masked faults).
  /// Deterministic per trial, carried through checkpoints, and summed by
  /// merge; always 0 when incremental replay is disabled.
  std::uint64_t masked_exits = 0;
};

/// All trials of one campaign plus aggregation helpers. The buffered
/// counterpart of OutcomeAccumulator: keeps every record, for studies that
/// need per-trial data (Fig 5's value buckets). Aggregate-only consumers
/// should prefer Campaign::run_shard, whose memory is flat in trial count.
struct CampaignResult {
  std::vector<TrialRecord> trials;

  using Pred = std::function<bool(const TrialRecord&)>;

  /// Estimates P(pred) over all trials (zero-width when empty).
  Estimate rate(const Pred& pred) const;
  /// Estimates P(pred) over trials satisfying `filter`.
  Estimate rate_if(const Pred& filter, const Pred& pred) const;

  Estimate sdc1() const;
  Estimate sdc5() const;
  Estimate sdc10() const;
  Estimate sdc20() const;
};

/// What a stratified campaign produced: the partition, per-stratum
/// aggregates, and Horvitz–Thompson estimate helpers. Deterministic in
/// (options, budget) regardless of thread count, batching, or
/// checkpoint/resume boundaries, like the uniform shard path.
struct StratifiedResult {
  /// Canonical stratum definitions and their exact weights (StratumSet
  /// order; weights sum to 1).
  std::vector<Stratum> strata;
  std::vector<double> weights;
  /// One accumulator per stratum, fed only by that stratum's trials.
  std::vector<OutcomeAccumulator> per_stratum;
  /// Exact fold of every per-stratum accumulator: the raw (unweighted)
  /// pooled counts, what the checkpoint's top-level accumulator carries.
  OutcomeAccumulator pooled;

  std::uint64_t rounds = 0;        ///< completed allocation rounds
  std::uint64_t trials = 0;        ///< trials executed (== pooled.trials())
  std::uint64_t masked_exits = 0;  ///< early cache-match exits (pooled)
  bool complete = false;   ///< controller finished (vs stop_after/cancel)
  bool converged = false;  ///< complete via the CI target, not the budget
  bool resumed = false;    ///< a checkpoint was loaded before running

  /// Stratified HT estimates of the paper's SDC criteria. Unlike the
  /// pooled accumulator's Wilson rates, these are unbiased for the
  /// *population* rate under the adaptive allocation.
  StratifiedEstimate sdc1() const;
  StratifiedEstimate sdc5() const;
  StratifiedEstimate sdc10() const;
  StratifiedEstimate sdc20() const;

  /// Per-stratum sufficient statistics with `hits` drawn by `metric` —
  /// the form stratified_estimate() and next_allocation() consume.
  std::vector<StratumCounts> counts(
      const std::function<std::size_t(const OutcomeAccumulator&)>& metric)
      const;
};

/// A reusable (network, dtype, inputs) binding for running campaigns.
class Campaign {
 public:
  /// Builds the typed network from (spec, blob), quantizes `inputs`, and
  /// computes their golden activation caches and predictions. `blob` and
  /// `inputs` are sinks: the float weights are freed once the typed network
  /// holds them and each float image once its cache holds it, so a caller
  /// that moves them in never keeps both copies alive.
  Campaign(const dnn::NetworkSpec& spec, dnn::WeightsBlob blob,
           numeric::DType dtype, std::vector<dnn::Example> inputs);
  ~Campaign();
  Campaign(Campaign&&) noexcept;
  Campaign& operator=(Campaign&&) noexcept;

  /// Runs `opt.trials` independent injections, buffering every record.
  /// Deterministic in opt.seed, regardless of thread count. Zero trials
  /// yields an empty result whose estimates are all zero-width.
  CampaignResult run(const CampaignOptions& opt) const;

  /// Runs one shard of the campaign with streaming aggregation: records
  /// are folded into the returned accumulator (and optionally streamed to
  /// `sink` in trial order) instead of buffered. Honors `spec.checkpoint`
  /// for resumable execution. Memory is bounded by (workers + batch), not
  /// by trial count.
  ShardResult run_shard(const CampaignOptions& opt, const ShardSpec& shard,
                        const TrialSink* sink = nullptr) const;

  /// Runs the adaptive stratified campaign (opt.sampler must be
  /// kStratified): pilot, Neyman reallocation rounds, and convergence /
  /// budget stop, per adaptive_sampler.h. Stratified campaigns are
  /// sequential-adaptive, so they don't shard: `shard.begin` must be 0 and
  /// `shard.end` 0 or opt.trials; checkpoint, batch, and stop_after keep
  /// their run_shard meanings (stop_after counts new trials). Trial t of
  /// stratum h draws from derive_stream(seed, h, t) and replays input
  /// t % num_inputs — functions of accumulated state alone, so resumed and
  /// uninterrupted runs are byte-identical at any thread count.
  StratifiedResult run_stratified(const CampaignOptions& opt,
                                  const ShardSpec& shard = {}) const;

  /// campaign_fingerprint of this campaign's network, dtype and inputs.
  std::uint64_t fingerprint(const CampaignOptions& opt) const;

  const dnn::NetworkSpec& spec() const;
  numeric::DType dtype() const;
  const Sampler& sampler() const;
  std::size_t num_inputs() const;
  /// Golden prediction for input `i`.
  const dnn::Prediction& golden_prediction(std::size_t i) const;
  /// Fault-free value range observed at each block end across all inputs.
  const std::vector<BlockRange>& golden_block_ranges() const;
  /// Input `i`'s fault-free activation cache; T must be dtype()'s type.
  template <typename T>
  const dnn::ActivationCache<T>& golden_cache(std::size_t i) const {
    DNNFI_EXPECTS(numeric::dtype_of<T>() == dtype());
    return *static_cast<const dnn::ActivationCache<T>*>(golden_cache_of(i));
  }

 private:
  const void* golden_cache_of(std::size_t i) const;

  struct Backend;
  template <typename T>
  struct TypedBackend;
  std::unique_ptr<Backend> backend_;
};

/// Fault-free profiling: value range per block-end layer over `count`
/// examples from `source` (the SED "learning phase" and Table 4).
std::vector<BlockRange> profile_block_ranges(const dnn::NetworkSpec& spec,
                                             const dnn::WeightsBlob& blob,
                                             numeric::DType dtype,
                                             const dnn::ExampleSource& source,
                                             std::uint64_t begin,
                                             std::size_t count);

/// Indices of block-end layers (the last non-softmax layer of each block).
std::vector<std::size_t> block_end_layers(const dnn::NetworkSpec& spec);

}  // namespace dnnfi::fault
