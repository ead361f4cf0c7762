// The worker transport of the campaign supervisor.
//
// Every worker is a persistent `dnnfi_campaign worker` process speaking
// length-prefixed, CRC-checked frames (below) on its standard streams.
// `spawn_worker` starts one for a fleet node: exec'd directly when the node
// is this machine (`localhost` — also the one-node fleet `supervise
// --workers W` runs), or through `ssh <host> <command>` otherwise. A worker
// lives as long as its fleet slot and runs one task (a shard range) per
// kInit frame the supervisor sends down its stdin; EOF on stdin ends it.
// Each kInit carries the task's range and its resume checkpoint image. The
// worker keeps the task's checkpoint in the node's scratch directory and
// sends its file image back after every batch, the complete image last;
// each image is also the worker's heartbeat. The supervisor lands each
// shipped image atomically in --ckpt-dir, so a retried shard — on the same
// node or another — resumes from the last shipped batch.
//
// Frame layout (little-endian):
//
//   offset  size  field
//   0       4     payload length N (bounded by kMaxFramePayload)
//   4       1     frame type (FrameType)
//   5       4     CRC-32 of the payload
//   9       N     payload
//
//   1 kInit       supervisor -> worker, one per task: u64 begin, u64 end
//                 (the trial range [begin, end)), then the checkpoint image
//                 to resume from; an empty image means start fresh (discard
//                 any stale node-local checkpoint).
//   3 kCheckpoint worker -> supervisor: the worker's checkpoint file image,
//                 exactly as written to its node-local disk (after every
//                 batch; frame CRC plus the checkpoint's own envelope CRC).
//                 The complete image is the task's last frame.
//
// A structurally damaged stream (bad CRC, oversized length, any other type
// — 2 included, an earlier protocol's progress beat) is a kTransport
// error: the channel, not the shard, is at fault, so the supervisor kills
// the worker and retries the shard — preferring a different host.
//
// All reads and writes here loop on EINTR and short transfers (write(2) to
// a pipe is not atomic past PIPE_BUF; read(2) returns early at buffer
// boundaries), and the frame decoder tolerates arbitrary fragmentation for
// the same reason. See DESIGN.md §13.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"

namespace dnnfi::fault {

// ---- hardened low-level I/O ----------------------------------------------

/// write(2) until every byte is out; loops on EINTR and short writes.
/// kTransport on a hard error (EPIPE included — callers that tolerate a
/// dead peer check the message, not errno).
Expected<void> io_write_full(int fd, const std::uint8_t* data, std::size_t n);

/// One read(2) retried on EINTR. Returns bytes read, 0 on EOF, or -1 when
/// the (nonblocking) fd has nothing now. kTransport on a hard error.
Expected<long> io_read_chunk(int fd, std::uint8_t* buf, std::size_t n);

// ---- frame codec ---------------------------------------------------------

enum class FrameType : std::uint8_t {
  kInit = 1,        ///< supervisor->worker one task: range + resume state
  kCheckpoint = 3,  ///< worker->supervisor checkpoint image and heartbeat
};

/// Upper bound on a frame payload. Checkpoints are kilobytes; anything
/// approaching this is stream damage, not data, and must not drive
/// allocations.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

struct Frame {
  FrameType type = FrameType::kCheckpoint;
  std::vector<std::uint8_t> payload;
};

/// Encodes one frame (header + CRC + payload) into a contiguous buffer.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::uint8_t* payload,
                                       std::size_t n);

/// Incremental frame parser over an arbitrarily fragmented byte stream.
class FrameDecoder {
 public:
  /// Appends raw bytes received from the peer.
  void feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete frame: a Frame, std::nullopt while the
  /// buffer holds only a partial frame, or kTransport on structural damage
  /// (unknown type, oversized length, CRC mismatch). After an error the
  /// stream is unrecoverable — there is no resynchronization point.
  Expected<std::optional<Frame>> next();

  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix; compacted between feeds
};

/// Encodes and writes one frame. kTransport on failure.
Expected<void> send_frame(int fd, FrameType type, const std::uint8_t* payload,
                          std::size_t n);

// ---- kInit: one task for a persistent worker ----------------------------

/// A decoded kInit payload.
struct TaskInit {
  std::uint64_t begin = 0;  ///< the task's trial range [begin, end)
  std::uint64_t end = 0;
  /// Checkpoint image to resume from; empty = start fresh.
  std::vector<std::uint8_t> resume;
};

/// Encodes a kInit payload (send it with send_frame). An empty `resume`
/// starts the task fresh.
std::vector<std::uint8_t> encode_init(std::uint64_t begin, std::uint64_t end,
                                      const std::vector<std::uint8_t>& resume);

/// Parses a kInit payload. kTransport when it is shorter than the 16 bytes
/// of its range. The range is not checked here (see accept_task).
Expected<TaskInit> parse_init(const std::uint8_t* data, std::size_t n);

/// Leaf name of a shard's checkpoint file, "shard_<begin>_<end>.ckpt": the
/// same name in --ckpt-dir and in every node's scratch directory.
std::string shard_checkpoint_name(std::uint64_t begin, std::uint64_t end);

/// Worker side of a task: checks begin < end <= trials (kShardMismatch
/// otherwise, before any file is touched), then lands the resume image as
/// `<scratch_dir>/shard_<begin>_<end>.ckpt` or — for "start fresh" —
/// removes a stale file there. Returns that path.
Expected<std::string> accept_task(const TaskInit& task, std::uint64_t trials,
                                  const std::string& scratch_dir);

/// Worker-side reader of the supervisor's kInit frames on a blocking fd.
class InitReader {
 public:
  explicit InitReader(int fd) : fd_(fd) {}

  /// Blocks for the next task. std::nullopt on EOF at a frame boundary
  /// (the supervisor has no more work for this worker); kTransport on a
  /// damaged stream, a non-kInit frame or EOF mid-frame; kInterrupted as
  /// soon as *cancel reads true (checked whenever a signal wakes the wait,
  /// and at least every 200 ms).
  Expected<std::optional<TaskInit>> next(const std::atomic<bool>* cancel);

 private:
  int fd_;
  FrameDecoder dec_;
};

// ---- supervisor-side channel ---------------------------------------------

/// Turns a worker's frame stream into shipped checkpoint images, tolerating
/// arbitrary fragmentation.
class WorkerChannel {
 public:
  /// Decodes as many kCheckpoint frames as `data` completes, appending their
  /// images to `out`. kTransport on structural damage or a kInit frame.
  Expected<void> feed(const std::uint8_t* data, std::size_t n,
                      std::vector<std::vector<std::uint8_t>>& out);

 private:
  FrameDecoder decoder_;
};

// ---- worker spawning -----------------------------------------------------

/// Everything needed to start one worker process.
struct WorkerSpawn {
  std::string binary;                    ///< dnnfi_campaign path (both ends)
  std::vector<std::string> flags;        ///< campaign flags, forwarded as-is
  std::string stderr_log;                ///< append worker stderr here; "" = inherit
};

/// A spawned worker as the supervisor sees it.
struct WorkerHandle {
  pid_t pid = -1;  ///< local child (the worker itself, or its ssh client)
  int rx = -1;     ///< nonblocking worker->supervisor fd (owned by caller)
  int tx = -1;     ///< supervisor->worker fd for kInit frames (owned by caller)
};

/// Starts one idle worker on `host` as `<binary> worker <flags> --ckpt-dir
/// <scratch_dir>/`; it waits for kInit frames on tx and checkpoints into
/// `scratch_dir` (the path stays in argv, so a node's workers can be found
/// with `pkill -f <scratch_dir>/`). For `localhost`/`local`/`127.0.0.1`
/// the worker is exec'd directly; any other host is reached through
/// `ssh -oBatchMode=yes <host> <command>`, or through
/// `$DNNFI_FLEET_SSH <host> <command>` when that variable is set (test
/// harnesses substitute a fake; deployments substitute wrappers). The
/// dnnfi_campaign binary must exist at the same path on the remote host;
/// the worker creates its scratch directory itself. On success the caller
/// owns handle.rx and handle.tx and must waitpid(handle.pid). Spawn-level
/// failures are kTransport.
Expected<WorkerHandle> spawn_worker(const std::string& host,
                                    const std::string& scratch_dir,
                                    const WorkerSpawn& s);

/// True for host names that mean "this machine, no ssh".
bool is_local_host(const std::string& host);

/// Single-quotes a string for a POSIX shell (ssh joins the command words
/// and hands them to the remote shell).
std::string shell_quote(const std::string& s);

}  // namespace dnnfi::fault
