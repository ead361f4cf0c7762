// Fault-tolerant campaign supervisor: runs a sharded campaign across
// spawned worker subprocesses and survives their failures.
//
// The supervisor partitions [0, trials) into shards (tasks) and runs them
// on persistent `dnnfi_campaign worker` processes (the same binary in a
// hidden mode) on a fleet node (fault/fleet.h): the hosts of --hosts /
// --hosts-file, or else the single node `localhost:<workers>`. A worker
// lives as long as its fleet slot: it loads the model and builds its golden
// caches once, then runs one task per kInit frame (fault/transport.h) the
// supervisor sends down its stdin, until EOF. It keeps the task's checkpoint
// in the node's scratch directory (`<checkpoint_dir>/node<i>/` for
// localhost nodes) and sends that checkpoint's file image as a kCheckpoint
// frame after every batch, the complete image last; the frame is also its
// heartbeat. The supervisor:
//
//   dispatch  — one task per free fleet slot, preferring a node other than
//               the one the task last failed on (retry-elsewhere); the
//               node's idle worker takes it, or a worker is spawned when
//               the node has none and a slot to spare;
//   ship      — validates every shipped checkpoint and lands it atomically
//               in checkpoint_dir, the durable copy a retry resumes from;
//               a complete one is the task done, and its worker idle;
//   watchdog  — SIGKILLs a worker whose task sends nothing for the
//               heartbeat timeout (counted from the kInit send or the last
//               byte read) or exceeds the per-shard wall-clock timeout
//               (counted from the kInit send); an idle worker has no
//               deadline;
//   retry     — re-dispatches failed tasks with exponential backoff plus
//               deterministic jitter, up to `max_attempts` per range. A
//               retried task resumes from the last shipped batch, so a
//               crash loses at most two batches (the one being shipped
//               and the one running ahead of it);
//   bisect    — a range that exhausts its attempts is split in half and
//               each half re-queued; repeated failures converge on the
//               single poison trial, which is *quarantined* (recorded in
//               aborted_trials, excluded from aggregates) instead of
//               aborting the campaign;
//   degrade   — two OOM or launch failures in a row on a node halve its
//               slots (never below one); a node whose failures keep coming
//               is benched for a while, unless it is the only one. Idle
//               workers of a draining, benched or degraded node get EOF;
//   merge     — completed shard checkpoints are merged exactly (ExactSum
//               associativity) into aggregates byte-identical to a
//               monolithic run, quarantined trials excepted and
//               enumerated, by merge_checkpoints (fault/checkpoint.h),
//               the rule `dnnfi_campaign merge` applies too.
//
// Failure classification rides the error.h taxonomy over the process
// boundary: a worker that dies before its task's complete checkpoint lands
// fails that task; it exits with exit_code(code), the supervisor classifies
// via errc_from_exit() / WIFSIGNALED and retries only retryable() codes,
// and the slot respawns a worker on demand. Fatal codes (fingerprint
// mismatch, corrupt/version-skewed checkpoint, usage errors) abort the
// whole campaign immediately — retrying cannot help, and bisecting would
// quarantine every trial.
//
// Crash-safety of the supervisor itself: all durable state lives in the
// checkpoint directory. On startup the directory is scanned; complete
// shard checkpoints count as coverage, gaps are (re)scheduled with
// deterministic names (`shard_<begin>_<end>.ckpt`), and an incomplete
// checkpoint for a rescheduled range is shipped to its worker to resume.
// `kill -9` of the supervisor or any worker therefore loses at most two
// batches of work. With SupervisorOptions::fingerprint set, a checkpoint of
// another campaign is refused at startup, before any worker spawns.
// Membership is elastic via SIGHUP-triggered hosts-file reloads. See
// DESIGN.md §9 and §13.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/accumulator.h"

namespace dnnfi::fault {

struct SupervisorOptions {
  /// Path of the dnnfi_campaign binary to exec in worker mode.
  std::string binary;
  /// Campaign-defining flags forwarded verbatim to every worker
  /// (--network, --dtype, --trials, --seed, ...). The supervisor appends
  /// the node's --ckpt-dir itself; shard ranges travel in kInit frames.
  std::vector<std::string> worker_flags;

  std::uint64_t trials = 0;       ///< whole-campaign trial count
  std::uint64_t shard_size = 0;   ///< trials per shard; 0 = auto
  /// Slots of the one-node fleet `localhost:<workers>` used when neither
  /// hosts nor hosts_file is set.
  int workers = 2;

  double heartbeat_timeout_s = 60.0;  ///< silence ⇒ SIGKILL
  double shard_timeout_s = 0.0;       ///< wall clock per attempt; 0 = none
  int max_attempts = 3;               ///< per range before bisecting
  double backoff_base_s = 0.25;       ///< first retry delay
  double backoff_cap_s = 10.0;        ///< delay ceiling
  std::size_t max_quarantine = 16;    ///< poison-trial budget; more = fatal

  /// Directory holding shard checkpoints and the merged campaign
  /// checkpoint. One campaign configuration per directory: checkpoints of
  /// two configurations are a fatal fingerprint mismatch (startup scan,
  /// merge_checkpoints).
  std::string checkpoint_dir;
  /// The campaign_fingerprint of the campaign the worker flags define.
  /// When set, a checkpoint of any other campaign — on disk at startup or
  /// shipped by a worker — is a fatal fingerprint mismatch, so another
  /// campaign's directory is refused before any worker spawns. Unset, only
  /// the checkpoints' agreement with each other is checked.
  std::optional<std::uint64_t> fingerprint;

  /// Seeds the deterministic retry jitter (any value; reuse the campaign
  /// seed for reproducible schedules).
  std::uint64_t jitter_seed = 0;

  // ---- fleet membership (DESIGN.md §13) ----------------------------------

  /// Comma-separated `host:slots[:workdir]` fleet members (ssh for real
  /// hosts, direct exec with a private scratch dir for localhost entries).
  /// Empty — and hosts_file empty — means `localhost:<workers>`.
  std::string hosts;
  /// Hosts file: one `host:slots[:workdir]` per line, `#` comments. Takes
  /// precedence over `hosts`, and is re-read whenever *reload_hosts reads
  /// true (the CLI sets it from SIGHUP) — elastic membership: new hosts
  /// join the running campaign, removed hosts drain.
  std::string hosts_file;
  std::atomic<bool>* reload_hosts = nullptr;
  /// Per-host health: consecutive failed attempts before the host is
  /// quarantined for quarantine_base_s * 2^(prior quarantines), capped.
  int host_fail_limit = 3;
  double quarantine_base_s = 2.0;
  double quarantine_cap_s = 300.0;

  bool verbose = true;  ///< narrate launches/retries/quarantines on stderr

  /// Graceful shutdown: when it reads true, running workers receive SIGTERM
  /// (finishing their in-flight batch and checkpointing), idle ones EOF,
  /// and supervise() returns with `cancelled` set instead of merging.
  const std::atomic<bool>* cancel = nullptr;
};

/// What a supervised campaign produced.
struct SupervisorReport {
  OutcomeAccumulator acc;        ///< merged aggregates (quarantine excluded)
  std::uint64_t fingerprint = 0;
  std::uint64_t masked_exits = 0;
  /// Quarantined trial indices, ascending. Empty on a clean campaign.
  std::vector<std::uint64_t> aborted_trials;
  bool cancelled = false;  ///< stopped by SIGINT/SIGTERM before completion

  // Robustness telemetry.
  int workers_spawned = 0;  ///< worker processes started (one per slot
                            ///< unless a worker died)
  int retries = 0;          ///< failed attempts that were re-queued
  int watchdog_kills = 0;   ///< heartbeat/wall-clock SIGKILLs
  int bisections = 0;
  int degradations = 0;     ///< times a node's slots were halved

  // Fleet telemetry.
  int retries_elsewhere = 0;    ///< failed shards retried on another host
  int checkpoints_shipped = 0;  ///< checkpoint frames landed in --ckpt-dir
  int host_quarantines = 0;     ///< times a host was benched for its streak
};

/// Runs the supervised campaign to completion (or cancellation). Returns
/// the merged report, or the first fatal Error. Also writes the merged
/// state as `<checkpoint_dir>/campaign.ckpt` (aborted_trials enumerated)
/// so a finished campaign is self-describing on disk.
Expected<SupervisorReport> supervise(const SupervisorOptions& opt);

}  // namespace dnnfi::fault
