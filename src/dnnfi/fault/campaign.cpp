#include "dnnfi/fault/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "dnnfi/common/thread_pool.h"
#include "dnnfi/fault/checkpoint.h"

namespace dnnfi::fault {

using numeric::DType;

std::string sampler_id(const CampaignOptions& opt) {
  return opt.sampler == SamplerMode::kStratified ? opt.stratified.to_string()
                                                 : std::string("uniform");
}

std::vector<StratumCounts> StratifiedResult::counts(
    const std::function<std::size_t(const OutcomeAccumulator&)>& metric)
    const {
  DNNFI_EXPECTS(weights.size() == per_stratum.size());
  std::vector<StratumCounts> c(per_stratum.size());
  for (std::size_t h = 0; h < per_stratum.size(); ++h) {
    c[h].weight = weights[h];
    c[h].hits = metric(per_stratum[h]);
    c[h].n = per_stratum[h].trials();
  }
  return c;
}

StratifiedEstimate StratifiedResult::sdc1() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc1().hits; }));
}
StratifiedEstimate StratifiedResult::sdc5() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc5().hits; }));
}
StratifiedEstimate StratifiedResult::sdc10() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc10().hits; }));
}
StratifiedEstimate StratifiedResult::sdc20() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc20().hits; }));
}

Estimate CampaignResult::rate(const Pred& pred) const {
  std::size_t hits = 0;
  for (const auto& t : trials) hits += pred(t) ? 1U : 0U;
  return estimate(hits, trials.size());
}

Estimate CampaignResult::rate_if(const Pred& filter, const Pred& pred) const {
  std::size_t hits = 0, n = 0;
  for (const auto& t : trials) {
    if (!filter(t)) continue;
    ++n;
    hits += pred(t) ? 1U : 0U;
  }
  return estimate(hits, n);
}

Estimate CampaignResult::sdc1() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc1; });
}
Estimate CampaignResult::sdc5() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc5; });
}
Estimate CampaignResult::sdc10() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc10; });
}
Estimate CampaignResult::sdc20() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc20; });
}

std::vector<std::size_t> block_end_layers(const dnn::NetworkSpec& spec) {
  std::vector<std::size_t> ends;
  for (int b = 1; b <= spec.num_blocks(); ++b) {
    std::size_t last = spec.layers.size();
    for (std::size_t i = 0; i < spec.layers.size(); ++i) {
      if (spec.layers[i].block == b &&
          spec.layers[i].kind != dnn::LayerKind::kSoftmax)
        last = i;
    }
    DNNFI_EXPECTS(last < spec.layers.size());
    ends.push_back(last);
  }
  return ends;
}

/// Type-erased backend interface; one TypedBackend<T> per datapath type.
/// The fingerprint is computed by Campaign (it only needs type-erased
/// accessors) and passed down so checkpoints can be validated.
struct Campaign::Backend {
  virtual ~Backend() = default;
  virtual ShardResult run_shard(const CampaignOptions& opt,
                                const ShardSpec& shard, const TrialSink* sink,
                                std::uint64_t fingerprint) const = 0;
  virtual StratifiedResult run_stratified(const CampaignOptions& opt,
                                          const ShardSpec& shard,
                                          std::uint64_t fingerprint) const = 0;
  virtual const dnn::NetworkSpec& spec() const = 0;
  virtual DType dtype() const = 0;
  virtual const Sampler& sampler() const = 0;
  virtual std::size_t num_inputs() const = 0;
  virtual const dnn::Prediction& golden_prediction(std::size_t i) const = 0;
  virtual const std::vector<BlockRange>& golden_block_ranges() const = 0;
  virtual const void* golden_cache(std::size_t i) const = 0;
};

template <typename T>
struct Campaign::TypedBackend final : Campaign::Backend {
  TypedBackend(const dnn::NetworkSpec& network_spec, dnn::WeightsBlob blob,
               std::vector<dnn::Example> inputs)
      : net(dnn::instantiate<T>(network_spec, blob)),
        site_sampler(network_spec, numeric::dtype_of<T>()),
        ends(block_end_layers(network_spec)) {
    DNNFI_EXPECTS(!inputs.empty());
    blob = {};  // the typed network holds the weights now
    // Per-layer -> block-slot map, so the hot-path observer is a table
    // lookup instead of a std::find over the block-end list.
    layer_to_block.assign(net.num_layers(), -1);
    for (std::size_t b = 0; b < ends.size(); ++b)
      layer_to_block[ends[b]] = static_cast<int>(b);
    // The golden forwards run on the global pool, one task per input.
    // Each cache is allocated, and its input converted straight into it,
    // here on the calling thread first, so the tasks allocate nothing
    // (DESIGN.md §8). The folds below then read the caches in input order,
    // exactly as a serial build would.
    caches.resize(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      tensor::convert_into<T, float>(inputs[i].image,
                                     caches[i].bind(net.plan()));
      inputs[i].image = {};  // the cache holds the converted image now
    }
    parallel_for(caches.size(), [this](std::size_t i) { caches[i].fill(); });
    predictions.reserve(inputs.size());
    masked_outcomes.reserve(inputs.size());
    ranges.assign(ends.size(), BlockRange{std::numeric_limits<double>::max(),
                                          std::numeric_limits<double>::lowest()});
    for (const auto& cache : caches) {
      predictions.push_back(net.interpret(cache.output()));
      masked_outcomes.push_back(
          classify(predictions.back(), predictions.back()));
      for (std::size_t b = 0; b < ends.size(); ++b) {
        const auto [lo, hi] = tensor::value_range<T>(cache.act(ends[b]));
        ranges[b].lo = std::min(ranges[b].lo, lo);
        ranges[b].hi = std::max(ranges[b].hi, hi);
      }
    }
  }

  /// Golden truths for blocks a masked-fault early exit skips: in the full
  /// replay those blocks carry exactly the fault-free activations, so the
  /// detector verdict and block distance can be read off precomputed
  /// tables instead of replaying the suffix. The self-distance is almost
  /// always zero, but euclidean_distance clamps non-finite deltas to 1e30,
  /// so an activation holding Inf/NaN has a nonzero distance to itself —
  /// precomputing it (rather than assuming 0) keeps records byte-identical.
  struct GoldenTables {
    std::vector<char> fires;       ///< [input * blocks + b], iff detector
    std::vector<double> self_dist; ///< [input * blocks + b], iff distances
  };

  GoldenTables compute_golden(const CampaignOptions& opt) const {
    GoldenTables g;
    if (opt.incremental_replay && opt.detector) {
      g.fires.assign(caches.size() * ends.size(), 0);
      for (std::size_t in = 0; in < caches.size(); ++in) {
        for (std::size_t b = 0; b < ends.size(); ++b) {
          const auto act = caches[in].act(ends[b]);
          for (std::size_t i = 0; i < act.size(); ++i) {
            const double v = numeric::numeric_traits<T>::to_double(act[i]);
            if (opt.detector(static_cast<int>(b) + 1, v)) {
              g.fires[in * ends.size() + b] = 1;
              break;
            }
          }
        }
      }
    }
    if (opt.incremental_replay && opt.record_block_distances) {
      g.self_dist.assign(caches.size() * ends.size(), 0.0);
      for (std::size_t in = 0; in < caches.size(); ++in)
        for (std::size_t b = 0; b < ends.size(); ++b)
          g.self_dist[in * ends.size() + b] = tensor::euclidean_distance<T>(
              caches[in].act(ends[b]), caches[in].act(ends[b]));
    }
    return g;
  }

  /// One sampled-and-lowered trial awaiting execution. `idx` is the trial's
  /// slot in the batch.
  struct Pending {
    std::size_t idx;
    std::size_t input;
    FaultDescriptor fd;
    dnn::AppliedFault af;
  };

  /// Executes one chunk's trials on the calling thread: drive()'s hot path.
  /// Sorts `pending` by (input, fault layer, idx) so trials sharing an
  /// activation cache and injection depth run back to back, keeping the
  /// cache segment hot. Trial p's record lands in records[p.idx] and its
  /// masked-exit flag in masked[p.idx], which restores slot order for the
  /// caller.
  void execute_span(const CampaignOptions& opt, const dnn::Executor<T>& exec,
                    const GoldenTables& golden, std::vector<Pending>& pending,
                    TrialRecord* records, char* masked) const {
    const bool incremental = opt.incremental_replay;
    dnn::Workspace<T> ws(net.plan());
    const std::size_t last_end = ends.back();

    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                if (a.input != b.input) return a.input < b.input;
                if (a.af.layer != b.af.layer) return a.af.layer < b.af.layer;
                return a.idx < b.idx;
              });

    // Per-chunk observer state, reset per trial; the closure itself is
    // built once per chunk.
    std::vector<double> dist(ends.size(), 0.0);
    const dnn::ActivationCache<T>* cache = nullptr;
    bool detected = false;
    double corruption = 0;
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          // Block-slot table lookup (hoisted out of the std::find the
          // observer used to do per layer).
          const int bslot = layer_to_block[layer];
          if (bslot < 0) return;
          const auto b = static_cast<std::size_t>(bslot);
          if (opt.detector && !detected) {
            const int block = bslot + 1;
            for (std::size_t i = 0; i < act.size(); ++i) {
              const double v = numeric::numeric_traits<T>::to_double(act[i]);
              if (opt.detector(block, v)) {
                detected = true;
                break;
              }
            }
          }
          if (opt.record_block_distances)
            dist[b] = tensor::euclidean_distance<T>(act, cache->act(layer));
          if (layer == last_end) {
            const std::size_t mism =
                tensor::bitwise_mismatch_count<T>(act, cache->act(layer));
            corruption =
                static_cast<double>(mism) / static_cast<double>(act.size());
          }
        };

    dnn::ReplayInfo replay;
    for (const Pending& p : pending) {
      TrialRecord& tr = records[p.idx];
      tr.input_index = p.input;
      tr.fault = p.fd;
      // Layers write record fields only when the fault touches them;
      // start from a fresh record so buffer reuse cannot leak one
      // trial's values into the next.
      tr.record = dnn::InjectionRecord{};

      cache = &caches[p.input];
      detected = false;
      corruption = 0;
      std::fill(dist.begin(), dist.end(), 0.0);

      // The final-corruption metric is cheap and always useful; keep
      // the observer on unconditionally. The fault was lowered in the
      // sampling pass, so run the executor directly instead of going
      // through inject().
      dnn::RunRequest<T> req;
      req.cache = cache;
      req.fault = &p.af;
      req.record = &tr.record;
      req.observer = &observer;
      req.early_exit = incremental;
      req.replay = &replay;
      const auto out = exec.run(ws, req);
      if (replay.masked) {
        // Blocks past the exit point would have replayed bit-identical
        // to the fault-free run; read their observations off the
        // precomputed golden tables. Final corruption stays exactly 0
        // when last_end was skipped (golden vs golden never mismatches).
        for (std::size_t b = 0; b < ends.size(); ++b) {
          if (ends[b] <= replay.masked_at) continue;
          if (opt.detector && !detected &&
              golden.fires[p.input * ends.size() + b] != 0)
            detected = true;
          if (opt.record_block_distances)
            dist[b] = golden.self_dist[p.input * ends.size() + b];
        }
      }
      // A masked exit's output is the cached golden output, whose outcome
      // was classified once per input.
      tr.outcome = replay.masked
                       ? masked_outcomes[p.input]
                       : classify(predictions[p.input], net.interpret(out));
      tr.detected = detected;
      tr.output_corruption = corruption;
      if (opt.record_block_distances)
        tr.block_distance.assign(dist.begin(), dist.end());
      else
        tr.block_distance.clear();
      masked[p.idx] = replay.masked ? 1 : 0;
    }
  }

  /// One run's identity, geometry and aggregates, shared by drive() and its
  /// two callers. `accs` is the caller's storage: one accumulator per slot
  /// key (uniform: one; stratified: one per stratum).
  struct Run {
    Run(const TypedBackend& b, const CampaignOptions& o, const ShardSpec& s,
        std::uint64_t fp, std::vector<OutcomeAccumulator>& a)
        : opt(o), shard(s), fingerprint(fp), begin(s.begin),
          end(s.end == 0 ? o.trials : s.end), accel_id(o.accel.to_string()),
          op_id(o.constraint.op.to_string()), samp_id(sampler_id(o)),
          sampler(&b.site_sampler), accs(a) {
      DNNFI_EXPECTS(begin <= end && end <= o.trials);
      // The default (Eyeriss) reuses the backend's precomputed sampler so
      // the hot path is unchanged; other geometries build their model and
      // sampler per run.
      if (!o.accel.is_eyeriss()) {
        owned_model = accel::make_accelerator(o.accel);
        model = owned_model.get();
        owned_sampler.emplace(b.net.spec(), numeric::dtype_of<T>(), *model);
        sampler = &*owned_sampler;
      }
      DNNFI_EXPECTS(model->supports(o.site));
    }
    // `sampler` may point into `owned_sampler`.
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    /// Trials folded so far, resumed ones included.
    std::uint64_t executed() const {
      std::uint64_t n = 0;
      for (const auto& a : accs) n += a.trials();
      return n;
    }

    const CampaignOptions& opt;
    const ShardSpec& shard;
    const std::uint64_t fingerprint;
    const std::uint64_t begin, end;  ///< trial range; stratified: [0, budget)
    const std::string accel_id, op_id, samp_id;
    std::unique_ptr<accel::AcceleratorModel> owned_model;
    const accel::AcceleratorModel* model = &accel::eyeriss_model();
    std::optional<Sampler> owned_sampler;
    const Sampler* sampler;
    std::vector<OutcomeAccumulator>& accs;
    std::uint64_t masked_exits = 0;
    bool resumed = false;
    /// The checkpoint on disk already says complete: nothing left to save.
    bool saved_complete = false;
  };

  /// Exact fold of every slot accumulator.
  OutcomeAccumulator pooled(const std::vector<OutcomeAccumulator>& accs) const {
    OutcomeAccumulator p(ends.size());
    for (const auto& a : accs) p.merge(a);
    return p;
  }

  /// Loads the run's checkpoint when one exists and validates it in this
  /// order: fingerprint, trial range, axes. Restores the masked-exit count;
  /// the caller restores its own state from the returned checkpoint.
  std::optional<ShardCheckpoint> resume(Run& run) const {
    const std::string& path = run.shard.checkpoint;
    if (path.empty() || !std::filesystem::exists(path)) return std::nullopt;
    ShardCheckpoint ck = load_shard_checkpoint(path);
    if (ck.fingerprint != run.fingerprint)
      throw CheckpointError(
          Errc::kFingerprintMismatch,
          "checkpoint " + path +
              ": campaign fingerprint mismatch (file was written by a run "
              "with different options; refusing to resume)");
    if (ck.trials_total != run.opt.trials || ck.shard_begin != run.begin ||
        ck.shard_end != run.end)
      throw CheckpointError(
          Errc::kShardMismatch,
          "checkpoint " + path + ": shard range mismatch (file covers [" +
              std::to_string(ck.shard_begin) + ", " +
              std::to_string(ck.shard_end) + ") of " +
              std::to_string(ck.trials_total) + " trials, run requests [" +
              std::to_string(run.begin) + ", " + std::to_string(run.end) +
              ") of " + std::to_string(run.opt.trials) + ")");
    if (auto axes = validate_checkpoint_axes(ck, run.accel_id, run.op_id,
                                             run.samp_id);
        !axes.ok())
      throw CheckpointError(axes.error().code,
                            "checkpoint " + path + ": " + axes.error().message);
    run.masked_exits = ck.masked_exits;
    run.resumed = true;
    run.saved_complete = ck.complete;
    return ck;
  }

  /// Slot i of a batch: the accumulator its record folds into (uniform: 0;
  /// stratified: the stratum) and the trial's index in that slot's stream.
  struct Slot {
    std::size_t acc;
    std::uint64_t trial;
  };

  /// One batch of drive(): the slots it plans, the records and masked-exit
  /// flags its chunks write, and the chunk body and ticket that run it. The
  /// ticket is the last member, so destroying a Batch joins its chunks
  /// before the buffers they write go away.
  struct Batch {
    std::vector<Slot> slots;
    std::vector<TrialRecord> records;
    std::vector<char> masked;
    std::function<void(std::size_t, std::size_t)> body;
    ThreadPool::Ticket ticket;
  };

  /// The one trial-batch loop behind run_shard and run_stratified. The
  /// caller supplies what differs between samplers:
  ///  - next(batch, slots) plans the next batch of at most `batch` slots
  ///    on the driving thread, or returns false once the campaign is done;
  ///    `next_reads_fold` says whether it reads the folded aggregates;
  ///  - draw(slot) samples the slot's fault from the slot's own RNG stream;
  ///  - fill(ck) adds the caller's fields to each saved checkpoint;
  ///  - sdc1() is the running SDC-1 estimate progress reports carry.
  /// Records land in a per-batch slot buffer and fold on the driving thread
  /// in slot order, so aggregates are byte-identical at any thread count by
  /// construction, and memory stays flat in trial count. After every batch
  /// the records stream to `sink` (keyed by slot trial), the checkpoint is
  /// saved, progress is reported, and stop_after/cancel may end the run.
  /// When `next` does not read the fold, batch k+1 is planned and posted
  /// before batch k is joined, so the pool runs it while this thread folds
  /// and saves batch k; a stop or cancel then still folds and saves the
  /// batch in flight. No batch is posted once stop_after's trials are.
  /// Batches bound that latency and the record buffers; they never change
  /// results. Returns true when the campaign ran to completion.
  template <typename Next, typename Draw, typename Fill, typename Sdc1>
  bool drive(Run& run, const TrialSink* sink, bool next_reads_fold,
             const Next& next, const Draw& draw, const Fill& fill,
             const Sdc1& sdc1) const {
    const auto save = [&](bool complete) {
      if (run.shard.checkpoint.empty()) return;
      ShardCheckpoint ck;
      ck.fingerprint = run.fingerprint;
      ck.network = net.spec().name;
      ck.accel = run.accel_id;
      ck.fault_op = run.op_id;
      ck.sampler = run.samp_id;
      ck.trials_total = run.opt.trials;
      ck.shard_begin = run.begin;
      ck.shard_end = run.end;
      ck.next_trial = run.begin + run.executed();
      ck.complete = complete;
      ck.masked_exits = run.masked_exits;
      ck.acc = pooled(run.accs);
      fill(ck);
      save_shard_checkpoint(run.shard.checkpoint, ck);
      run.saved_complete = ck.complete;
    };
    if (run.saved_complete) return true;

    const CampaignOptions& opt = run.opt;
    ThreadPool& pool = opt.pool ? *opt.pool : ThreadPool::global();
    const dnn::Executor<T> exec(net.plan());
    const GoldenTables golden = compute_golden(opt);
    const std::size_t batch = std::max<std::size_t>(1, run.shard.batch);
    const auto t0 = std::chrono::steady_clock::now();
    const auto cancelled = [&] {
      return opt.cancel && opt.cancel->load(std::memory_order_relaxed);
    };
    std::uint64_t planned = 0;  // new trials posted by this call
    std::uint64_t ran = 0;      // new trials folded by this call

    // Declared after everything the chunks read: an exception unwinding
    // out of this loop joins both batches first.
    Batch ring[2];
    for (Batch& b : ring)
      b.body = [&, self = &b](std::size_t cb, std::size_t ce) {
        // Sample and lower every trial of the chunk up front (a trial's RNG
        // stream depends only on its slot, so sampling order is free);
        // execute_span then runs them sorted by (input, fault layer).
        std::vector<Pending> pending;
        pending.reserve(ce - cb);
        for (std::size_t i = cb; i < ce; ++i) {
          Pending p;
          p.idx = i;
          p.input =
              static_cast<std::size_t>(self->slots[i].trial % caches.size());
          p.fd = draw(self->slots[i]);
          p.af = lower(p.fd, net.mac_layers(), *run.model);
          pending.push_back(p);
        }
        execute_span(opt, exec, golden, pending, self->records.data(),
                     self->masked.data());
      };
    const auto launch = [&](Batch& b) {
      if (run.shard.stop_after > 0 && planned >= run.shard.stop_after)
        return false;
      if (!next(batch, b.slots)) return false;
      const std::size_t count = b.slots.size();
      b.records.resize(count);
      b.masked.assign(count, 0);
      planned += count;
      post_chunks(pool, count, b.body, b.ticket);
      return true;
    };

    Batch* cur = &ring[0];
    Batch* ahead = &ring[1];
    bool stopping = false;
    bool live = launch(*cur);
    while (live) {
      const bool ahead_live =
          !next_reads_fold && !stopping && !cancelled() && launch(*ahead);
      pool.wait(cur->ticket);
      const std::size_t count = cur->slots.size();
      for (std::size_t i = 0; i < count; ++i) {
        run.accs[cur->slots[i].acc].add(cur->records[i]);
        if (cur->masked[i] != 0) ++run.masked_exits;
      }
      ran += count;

      if (sink)
        for (std::size_t i = 0; i < count; ++i)
          (*sink)(cur->slots[i].trial, cur->records[i]);
      save(false);
      if (opt.progress) {
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        CampaignProgress p;
        p.done = run.executed();
        p.begin = run.begin;
        p.end = run.end;  // stratified: the budget, an upper bound
        p.trials_per_sec = secs > 0 ? static_cast<double>(ran) / secs : 0.0;
        p.eta_seconds = p.trials_per_sec > 0
                            ? static_cast<double>(run.end - run.begin -
                                                  p.done) /
                                  p.trials_per_sec
                            : 0.0;
        p.sdc1 = sdc1();
        p.masked_exits = run.masked_exits;
        p.masked_exit_rate = p.done > 0
                                 ? static_cast<double>(run.masked_exits) /
                                       static_cast<double>(p.done)
                                 : 0.0;
        opt.progress(p);
      }
      // Clean preemption or graceful shutdown: the batch is folded and its
      // checkpoint (if any) is on disk; a look-ahead batch already in
      // flight folds and saves on the next pass, then the loop ends.
      if ((run.shard.stop_after > 0 && ran >= run.shard.stop_after) ||
          cancelled())
        stopping = true;
      if (next_reads_fold) {
        live = !stopping && launch(*cur);  // folded: its buffers are free
      } else {
        std::swap(cur, ahead);
        live = ahead_live;
      }
    }
    if (stopping) return false;
    // A uniform shard's last batch already saved complete; a stratified run
    // learns it is done only after its last batch, and an empty shard ran
    // none.
    if (!run.saved_complete) save(true);
    return true;
  }

  ShardResult run_shard(const CampaignOptions& opt, const ShardSpec& shard,
                        const TrialSink* sink,
                        std::uint64_t fingerprint) const override {
    DNNFI_EXPECTS(opt.sampler == SamplerMode::kUniform);
    std::vector<OutcomeAccumulator> accs(1, OutcomeAccumulator(ends.size()));
    Run run(*this, opt, shard, fingerprint, accs);
    std::uint64_t next_trial = run.begin;
    if (std::optional<ShardCheckpoint> ck = resume(run)) {
      accs[0] = std::move(ck->acc);
      next_trial = ck->complete ? run.end : ck->next_trial;
    }

    // Uniform is the one-slot case: trial t draws from
    // derive_stream(seed, t) and replays input t % num_inputs. Its plan
    // reads only the trial cursor, so batches run one ahead of the fold.
    drive(
        run, sink, /*next_reads_fold=*/false,
        [&](std::size_t batch, std::vector<Slot>& slots) {
          const std::uint64_t b1 =
              std::min<std::uint64_t>(run.end, next_trial + batch);
          slots.clear();
          for (; next_trial < b1; ++next_trial) slots.push_back({0, next_trial});
          return !slots.empty();
        },
        [&](const Slot& s) {
          Rng rng = derive_stream(opt.seed, s.trial);
          return run.sampler->sample(opt.site, rng, opt.constraint);
        },
        [&](ShardCheckpoint& ck) { ck.complete = ck.next_trial == run.end; },
        [&] { return accs[0].sdc1(); });

    ShardResult st;
    st.acc = std::move(accs[0]);
    st.next_trial = next_trial;
    st.complete = next_trial == run.end;
    st.resumed = run.resumed;
    st.masked_exits = run.masked_exits;
    return st;
  }

  StratifiedResult run_stratified(const CampaignOptions& opt,
                                  const ShardSpec& shard,
                                  std::uint64_t fingerprint) const override {
    DNNFI_EXPECTS(opt.sampler == SamplerMode::kStratified);
    StratifiedResult res;
    Run run(*this, opt, shard, fingerprint, res.per_stratum);
    // Stratified campaigns are sequential-adaptive: no sharding.
    DNNFI_EXPECTS(opt.trials > 0 && run.begin == 0 && run.end == opt.trials);

    const StratumSet set(*run.sampler, opt.site, opt.constraint);
    const std::size_t H = set.size();
    res.strata.reserve(H);
    res.weights.reserve(H);
    for (std::size_t h = 0; h < H; ++h) {
      res.strata.push_back(set.stratum(h));
      res.weights.push_back(set.weight(h));
    }
    res.per_stratum.assign(H, OutcomeAccumulator(ends.size()));

    // Controller state. `rounds` counts completed allocation rounds; `plan`
    // is the in-flight round's per-stratum allocation and `cursor` how many
    // of its trials (canonical order: ascending stratum, then within-
    // stratum trial index) are already planned into batches.
    std::uint64_t rounds = 0;
    std::uint64_t cursor = 0;
    std::vector<std::uint64_t> plan;

    if (std::optional<ShardCheckpoint> ck = resume(run)) {
      if (!ck->stratified || ck->stratified->strata.size() != H ||
          (!ck->stratified->plan.empty() && ck->stratified->plan.size() != H))
        throw CheckpointError(Errc::kShardMismatch,
                              "checkpoint " + shard.checkpoint +
                                  ": stratum layout mismatch");
      for (std::size_t h = 0; h < H; ++h)
        if (ck->stratified->strata[h].id != res.strata[h].id())
          throw CheckpointError(
              Errc::kShardMismatch,
              "checkpoint " + shard.checkpoint + ": stratum " +
                  std::to_string(h) + " is '" + ck->stratified->strata[h].id +
                  "', campaign expects '" + res.strata[h].id() + "'");
      for (std::size_t h = 0; h < H; ++h)
        res.per_stratum[h] = std::move(ck->stratified->strata[h].acc);
      rounds = ck->stratified->rounds;
      plan = std::move(ck->stratified->plan);
      cursor = ck->stratified->cursor;
    }

    const auto sdc1_hits = [](const OutcomeAccumulator& a) {
      return a.sdc1().hits;
    };
    std::vector<std::uint64_t> pref(H + 1, 0);
    const auto next = [&](std::size_t batch, std::vector<Slot>& slots) {
      while (true) {
        if (plan.empty()) {
          // The next allocation is a pure function of accumulated state, so
          // a resumed campaign recomputes exactly the schedule an
          // uninterrupted one would have run.
          plan = next_allocation(res.counts(sdc1_hits), opt.stratified,
                                 opt.trials - run.executed());
          cursor = 0;
          if (plan.empty()) return false;  // converged, retired, or spent
        }
        for (std::size_t h = 0; h < H; ++h) pref[h + 1] = pref[h] + plan[h];
        if (cursor < pref[H]) break;
        ++rounds;
        plan.clear();
      }
      // Slot -> (stratum h, within-stratum trial index t): functions of
      // accumulated state alone, so the trial set is invariant to batch and
      // resume boundaries.
      const std::uint64_t b0 = cursor;
      cursor = std::min<std::uint64_t>(pref[H], b0 + batch);
      slots.resize(static_cast<std::size_t>(cursor - b0));
      std::size_t h = 0;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::uint64_t g = b0 + i;
        while (pref[h + 1] <= g) ++h;
        const std::uint64_t folded_this_round = std::min<std::uint64_t>(
            plan[h], b0 > pref[h] ? b0 - pref[h] : 0);
        slots[i] = {h, res.per_stratum[h].trials() - folded_this_round +
                           (g - pref[h])};
      }
      return true;
    };

    // Trial t of stratum h draws from derive_stream(seed, h, t). The next
    // allocation reads the per-stratum counts, so every batch is joined and
    // folded before the next is planned.
    const bool done = drive(
        run, nullptr, /*next_reads_fold=*/true, next,
        [&](const Slot& s) {
          Rng rng = derive_stream(opt.seed, static_cast<std::uint64_t>(s.acc),
                                  s.trial);
          return set.sample(s.acc, rng);
        },
        [&](ShardCheckpoint& ck) {
          StratifiedCheckpoint s;
          s.rounds = rounds;
          s.cursor = cursor;
          s.plan = plan;
          s.strata.reserve(H);
          for (std::size_t h = 0; h < H; ++h)
            s.strata.push_back(StratumCheckpoint{
                res.strata[h].id(), res.weights[h], res.per_stratum[h]});
          ck.stratified = std::move(s);
        },
        [&] { return res.sdc1().est; });

    res.pooled = pooled(res.per_stratum);
    res.trials = res.pooled.trials();
    res.rounds = rounds;
    res.masked_exits = run.masked_exits;
    res.complete = done;
    res.resumed = run.resumed;
    res.converged = done && opt.stratified.target_ci > 0 &&
                    res.sdc1().est.ci95 <= opt.stratified.target_ci;
    return res;
  }

  const dnn::NetworkSpec& spec() const override { return net.spec(); }
  DType dtype() const override { return numeric::dtype_of<T>(); }
  const Sampler& sampler() const override { return site_sampler; }
  std::size_t num_inputs() const override { return caches.size(); }
  const dnn::Prediction& golden_prediction(std::size_t i) const override {
    return predictions.at(i);
  }
  const std::vector<BlockRange>& golden_block_ranges() const override {
    return ranges;
  }
  const void* golden_cache(std::size_t i) const override {
    return &caches.at(i);
  }

  dnn::Network<T> net;
  Sampler site_sampler;
  std::vector<std::size_t> ends;
  /// layer index -> block slot (or -1): the observer's hot-path lookup.
  std::vector<int> layer_to_block;
  /// Fault-free activations of every layer boundary, one cache per input;
  /// trials seed their replay from (and early-exit against) these.
  std::vector<dnn::ActivationCache<T>> caches;
  std::vector<dnn::Prediction> predictions;
  /// classify(prediction, prediction) per input: every masked trial's
  /// outcome.
  std::vector<Outcome> masked_outcomes;
  std::vector<BlockRange> ranges;
};

Campaign::Campaign(const dnn::NetworkSpec& spec, dnn::WeightsBlob blob,
                   DType dtype, std::vector<dnn::Example> inputs) {
  backend_ = numeric::dispatch_dtype(
      dtype, [&]<typename T>() -> std::unique_ptr<Backend> {
        return std::make_unique<TypedBackend<T>>(spec, std::move(blob),
                                                 std::move(inputs));
      });
}

Campaign::~Campaign() = default;
Campaign::Campaign(Campaign&&) noexcept = default;
Campaign& Campaign::operator=(Campaign&&) noexcept = default;

CampaignResult Campaign::run(const CampaignOptions& opt) const {
  CampaignResult result;
  result.trials.resize(opt.trials);
  if (opt.trials == 0) return result;
  const TrialSink sink = [&](std::uint64_t trial, const TrialRecord& tr) {
    result.trials[static_cast<std::size_t>(trial)] = tr;
  };
  backend_->run_shard(opt, ShardSpec{}, &sink, fingerprint(opt));
  return result;
}

ShardResult Campaign::run_shard(const CampaignOptions& opt,
                                const ShardSpec& shard,
                                const TrialSink* sink) const {
  return backend_->run_shard(opt, shard, sink, fingerprint(opt));
}

StratifiedResult Campaign::run_stratified(const CampaignOptions& opt,
                                          const ShardSpec& shard) const {
  return backend_->run_stratified(opt, shard, fingerprint(opt));
}

std::uint64_t campaign_fingerprint(const std::string& network, DType dtype,
                                   std::size_t num_inputs,
                                   const CampaignOptions& opt) {
  ByteWriter w;
  w.u64(opt.seed);
  w.u64(opt.trials);
  w.u32(static_cast<std::uint32_t>(opt.site));
  w.u32(static_cast<std::uint32_t>(dtype));
  w.str(network);
  w.u64(num_inputs);
  const SampleConstraint& c = opt.constraint;
  w.u8(c.fixed_bit.has_value() ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.fixed_bit.value_or(0)));
  w.u8(c.fixed_block.has_value() ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.fixed_block.value_or(0)));
  w.u8(c.fixed_latch.has_value() ? 1 : 0);
  w.u32(c.fixed_latch ? static_cast<std::uint32_t>(*c.fixed_latch) : 0);
  w.u8(c.buffer_storage.has_value() ? 1 : 0);
  w.u32(c.buffer_storage ? static_cast<std::uint32_t>(*c.buffer_storage) : 0);
  w.u32(static_cast<std::uint32_t>(c.op.burst));
  w.u8(opt.record_block_distances ? 1 : 0);
  // The detector is a std::function and cannot be fingerprinted; record its
  // presence only. Resuming with a *different* detector is on the caller.
  w.u8(opt.detector ? 1 : 0);
  // Accelerator-geometry / fault-op axes fold in only when non-default, so
  // every pre-geometry campaign keeps its historical fingerprint (and its
  // checkpoints and stats files keep matching).
  if (!opt.accel.is_eyeriss() || c.op.kind != FaultOpKind::kToggle ||
      c.op.pattern != 0) {
    w.str(opt.accel.to_string());
    w.str(c.op.to_string());
  }
  // The sampler axis folds the same way: only when non-default, so every
  // uniform campaign keeps its historical fingerprint (and its checkpoints
  // and stats files keep matching).
  if (opt.sampler != SamplerMode::kUniform) w.str(sampler_id(opt));
  return fingerprint64(w.bytes().data(), w.bytes().size());
}

std::uint64_t Campaign::fingerprint(const CampaignOptions& opt) const {
  return campaign_fingerprint(backend_->spec().name, backend_->dtype(),
                              backend_->num_inputs(), opt);
}

const dnn::NetworkSpec& Campaign::spec() const { return backend_->spec(); }
DType Campaign::dtype() const { return backend_->dtype(); }
const Sampler& Campaign::sampler() const { return backend_->sampler(); }
std::size_t Campaign::num_inputs() const { return backend_->num_inputs(); }
const dnn::Prediction& Campaign::golden_prediction(std::size_t i) const {
  return backend_->golden_prediction(i);
}
const std::vector<BlockRange>& Campaign::golden_block_ranges() const {
  return backend_->golden_block_ranges();
}
const void* Campaign::golden_cache_of(std::size_t i) const {
  return backend_->golden_cache(i);
}

std::vector<BlockRange> profile_block_ranges(const dnn::NetworkSpec& spec,
                                             const dnn::WeightsBlob& blob,
                                             numeric::DType dtype,
                                             const dnn::ExampleSource& source,
                                             std::uint64_t begin,
                                             std::size_t count) {
  DNNFI_EXPECTS(count > 0);
  return numeric::dispatch_dtype(dtype, [&]<typename T>() {
    const dnn::Network<T> net = dnn::instantiate<T>(spec, blob);
    const auto ends = block_end_layers(spec);
    std::vector<BlockRange> ranges(
        ends.size(), BlockRange{std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()});
    // Observed via the executor instead of materializing traces: block-end
    // fmaps are scanned as they land in the arena (as SED's host-side check
    // scans them in the global buffer).
    const dnn::Executor<T> exec(net.plan());
    dnn::Workspace<T> ws(net.plan());
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          const auto it = std::find(ends.begin(), ends.end(), layer);
          if (it == ends.end()) return;
          const auto b = static_cast<std::size_t>(it - ends.begin());
          const auto [lo, hi] = tensor::value_range<T>(act);
          ranges[b].lo = std::min(ranges[b].lo, lo);
          ranges[b].hi = std::max(ranges[b].hi, hi);
        };
    for (std::size_t s = 0; s < count; ++s) {
      const dnn::Example ex = source(begin + s);
      const dnn::Tensor<T> image = tensor::convert<T>(ex.image);
      dnn::RunRequest<T> req;
      req.input = image;
      req.observer = &observer;
      exec.run(ws, req);
    }
    return ranges;
  });
}

}  // namespace dnnfi::fault
