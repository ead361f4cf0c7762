// Versioned shard checkpoints. A campaign shard persists (fingerprint,
// trial-range, next-trial cursor, accumulator state) so a killed run
// resumes from the last completed batch and finishes bit-identical to an
// uninterrupted one.
//
// File layout (all little-endian):
//
//   offset  size  field
//   0       8     magic "DNNFICKP"
//   8       4     format version (currently 5)
//   12      4     CRC-32 of the payload
//   16      8     payload size in bytes
//   24      ...   payload (ByteWriter stream):
//                   u64 fingerprint       — campaign-config fold (below)
//                   str network name      — diagnostics only
//                   str accel             — v4: geometry identity, e.g.
//                                           "eyeriss", "systolic:16x16"
//                   str fault_op          — v4: op identity, e.g. "toggle",
//                                           "set1:0x5"
//                   str sampler           — v5: sampler identity, "uniform"
//                                           or "stratified(pilot=…,…)"
//                   u64 trials_total      — opt.trials of the whole campaign
//                   u64 shard_begin, shard_end
//                   u64 next_trial        — first trial index NOT yet folded
//                                           (stratified: trials executed)
//                   u8  complete          — next_trial == shard_end
//                   u64 masked_exits      — early-exited (masked) trials
//                   u64 aborted count + u64[count] — v3: quarantined trials
//                   ...  OutcomeAccumulator::serialize — pooled aggregate
//                   u8  has_stratified    — v5: sections below present?
//                   u64 rounds            — completed allocation rounds
//                   u64 cursor            — executed trials of the plan
//                   u64 plan count + u64[count] — in-flight round allocation
//                   u64 strata count; per stratum:
//                     str id              — canonical Stratum::id()
//                     f64 weight          — exact uniform-draw probability
//                     ...  OutcomeAccumulator::serialize
//
// Version history: v1 lacked masked_exits; v2 lacked aborted_trials; v3
// lacked the accelerator-geometry / fault-op identity strings; v4 lacked
// the sampler identity and the per-stratum section. Loads of older files
// fail with a version error (campaign semantics are unchanged, but mixing
// counters across formats silently would corrupt masked-rate, quarantine,
// and cross-geometry reporting).
//
// Every structural defect — bad magic, unknown version, CRC mismatch,
// truncation — is reported with a typed Errc (error.h) naming the file and
// the defect; corrupt state is never silently (mis)loaded. The Expected
// API (try_load/try_save) is the primary one — the campaign supervisor
// dispatches on the code to decide retry vs abort — and the throwing
// wrappers preserve the original interface, raising CheckpointError that
// carries the same code. Writes go to a sibling ".tmp" file first and are
// renamed into place, so a crash mid-write leaves the previous checkpoint
// intact.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/accumulator.h"

namespace dnnfi::fault {

/// Thrown on any checkpoint load/validation failure (corrupt bytes,
/// version skew, or a checkpoint that does not match the campaign being
/// resumed). Catchable separately from programming-error ContractViolation,
/// and carries the structured code so process-boundary consumers (the
/// campaign CLI's exit status, the supervisor's retry policy) never have
/// to parse the message.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(Error err)
      : std::runtime_error(err.to_string()), code_(err.code) {}
  CheckpointError(Errc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

inline constexpr char kCheckpointMagic[8] = {'D', 'N', 'N', 'F',
                                             'I', 'C', 'K', 'P'};
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// One stratum's persisted state inside a stratified checkpoint (v5).
struct StratumCheckpoint {
  std::string id;     ///< canonical Stratum::id(); layout-mismatch guard
  double weight = 0;  ///< exact uniform-draw probability W_h
  OutcomeAccumulator acc;
};

/// Stratified-campaign extension of a checkpoint (v5): the per-stratum
/// accumulators plus the controller's in-flight round. Everything else the
/// controller needs (the next allocation) is a pure function of this state,
/// so nothing else is persisted.
struct StratifiedCheckpoint {
  std::uint64_t rounds = 0;  ///< completed allocation rounds
  std::uint64_t cursor = 0;  ///< trials of `plan` already executed + folded
  /// The in-flight round's per-stratum allocation (empty between rounds).
  std::vector<std::uint64_t> plan;
  std::vector<StratumCheckpoint> strata;
};

/// One shard's persistent state.
struct ShardCheckpoint {
  std::uint64_t fingerprint = 0;  ///< campaign-config fold (campaign.h)
  std::string network;            ///< spec name, for diagnostics
  /// Canonical accelerator-geometry identity the shard ran on (new in v4).
  std::string accel = "eyeriss";
  /// Canonical fault-operation identity (FaultOpSpec::to_string; v4).
  std::string fault_op = "toggle";
  /// Canonical sampler identity (campaign.h sampler_id; new in v5).
  std::string sampler = "uniform";
  std::uint64_t trials_total = 0;
  std::uint64_t shard_begin = 0;
  std::uint64_t shard_end = 0;
  std::uint64_t next_trial = 0;
  bool complete = false;
  /// Trials that early-exited on an exact cache match (masked faults);
  /// 0 when incremental replay was disabled. New in format v2.
  std::uint64_t masked_exits = 0;
  /// Trials quarantined by the supervisor: they crashed the worker on
  /// every attempt, were bisected down to, and are NOT folded into `acc`.
  /// Always empty for worker-written shard checkpoints; the supervisor's
  /// merged campaign checkpoint enumerates them. New in format v3.
  std::vector<std::uint64_t> aborted_trials;
  /// Pooled aggregate: for stratified campaigns, the exact fold of every
  /// per-stratum accumulator (so uniform-only consumers still read totals).
  OutcomeAccumulator acc;
  /// Present iff the campaign ran a non-uniform sampler (v5).
  std::optional<StratifiedCheckpoint> stratified;
};

/// Atomically writes `ck` to `path` (tmp file + rename). kIo on failure.
Expected<void> try_save_shard_checkpoint(const std::string& path,
                                         const ShardCheckpoint& ck);

/// Loads and validates a checkpoint. Failure codes: kIo (unreadable),
/// kCorruptData (bad magic/CRC/truncation/inconsistent ranges),
/// kVersionSkew (format this build does not read).
Expected<ShardCheckpoint> try_load_shard_checkpoint(const std::string& path);

// ---- checkpoint shipping (fault/transport.h frame channel) ---------------
//
// Remote workers persist to their own node-local disk; the supervisor's
// durable copy arrives as the raw file image over a transport frame. These
// helpers move validated *bytes* (the exact on-disk file image, magic and
// CRC included — no format bump) so both ends agree on what was shipped.

/// Parses and fully validates a checkpoint file image held in memory.
/// `origin` names the source ("frame from host X", a path) in errors.
/// Same failure codes as try_load_shard_checkpoint, minus kIo.
Expected<ShardCheckpoint> parse_checkpoint_bytes(const std::uint8_t* data,
                                                 std::size_t size,
                                                 const std::string& origin);

/// Reads a checkpoint file whole for shipping, validating that the image
/// parses before putting it on the wire. kIo when unreadable.
Expected<std::vector<std::uint8_t>> read_checkpoint_bytes(
    const std::string& path);

/// Lands a shipped checkpoint image: validates it parses, then writes it
/// atomically (tmp + rename) to `path`. kCheckpointShip on a damaged image,
/// kIo when the write fails.
Expected<void> write_checkpoint_bytes(const std::string& path,
                                      const std::uint8_t* data,
                                      std::size_t size);

/// Throwing wrapper over try_save_shard_checkpoint.
void save_shard_checkpoint(const std::string& path, const ShardCheckpoint& ck);

/// Throwing wrapper over try_load_shard_checkpoint.
ShardCheckpoint load_shard_checkpoint(const std::string& path);

/// Validates that a loaded checkpoint was produced on the given accelerator
/// geometry, fault operation, and sampler (canonical identity strings).
/// Fails with kFingerprintMismatch naming both sides — resuming a shard
/// under a different geometry/op/sampler would silently merge incomparable
/// trials.
Expected<void> validate_checkpoint_axes(const ShardCheckpoint& ck,
                                        const std::string& accel,
                                        const std::string& fault_op,
                                        const std::string& sampler = "uniform");

// ---- shard merge -----------------------------------------------------------

/// A loaded checkpoint and the file it came from, which rejections name.
struct NamedCheckpoint {
  std::string origin;
  ShardCheckpoint ck;
};

/// The one rule for folding shard checkpoints, shared by `dnnfi_campaign
/// merge` and the supervisor. Rejects, naming the file: no operand or an
/// incomplete one (kShardMismatch); another fingerprint or trials_total
/// than the first operand's (kFingerprintMismatch); other accel, fault-op
/// or sampler axes (validate_checkpoint_axes); overlapping ranges
/// (kShardMismatch). The result spans [0, trials_total) with the first
/// operand's identity fields, the exact fold of every accumulator and
/// masked_exits, and the sorted union of every aborted_trials list and
/// `quarantined`. It is `complete` iff the operand ranges plus quarantined
/// trials cover [0, trials_total); next_trial is the first trial they miss.
/// The stratified section is not carried over.
Expected<ShardCheckpoint> merge_checkpoints(
    const std::vector<NamedCheckpoint>& shards,
    const std::vector<std::uint64_t>& quarantined = {});

}  // namespace dnnfi::fault
