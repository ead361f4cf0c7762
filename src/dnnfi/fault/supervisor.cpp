#include "dnnfi/fault/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <list>
#include <optional>

#include "dnnfi/common/atomic_file.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/fleet.h"
#include "dnnfi/fault/transport.h"

namespace dnnfi::fault {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

std::string range_str(std::uint64_t begin, std::uint64_t end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
}

/// Last `n` lines of a file, for post-mortem failure reports.
std::vector<std::string> tail_lines(const std::string& path, std::size_t n) {
  std::ifstream in(path);
  if (!in) return {};
  std::deque<std::string> tail;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    tail.push_back(line);
    if (tail.size() > n) tail.pop_front();
  }
  return {tail.begin(), tail.end()};
}

/// A trial range queued for execution (fresh, retrying, or bisected).
struct Task {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  int attempts = 0;       ///< failed attempts so far
  TimePoint ready{};      ///< earliest launch time (backoff)
  std::string last_node;  ///< fleet node the last failure ran on ("" = none)
};

/// A persistent worker process and its channel to the supervisor: idle
/// between tasks, running `task` from the moment its kInit frame is sent.
struct Worker {
  pid_t pid = -1;
  int rx = -1;  ///< nonblocking worker->supervisor fd; -1 once EOF
  int tx = -1;  ///< supervisor->worker fd; -1 once closed (worker retiring)
  Fleet::Node* node = nullptr;  ///< fleet node the worker runs on
  WorkerChannel channel;
  std::string log_path;      ///< this process's stderr log ("" = inherited)
  std::optional<Task> task;  ///< the running task; empty while idle
  TimePoint started{};       ///< when the task's kInit frame was sent
  TimePoint last_beat{};     ///< when the last byte arrived from the worker
  bool watchdog_killed = false;
  bool channel_corrupt = false;  ///< frame damage or bad shipped checkpoint
  Error channel_error;           ///< set when channel_corrupt
};

/// A shard whose checkpoint on disk is complete.
struct Completed {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string path;
};

class Supervisor {
 public:
  Supervisor(const SupervisorOptions& opt, std::vector<HostSpec> hosts)
      : opt_(opt),
        fleet_(std::move(hosts),
               FleetConfig{opt.host_fail_limit, opt.quarantine_base_s,
                           opt.quarantine_cap_s, opt.checkpoint_dir}) {}

  Expected<SupervisorReport> run() {
    if (opt_.trials == 0)
      return fail(Errc::kInvalidArgument, "supervise: trials must be > 0");
    if (opt_.binary.empty())
      return fail(Errc::kInvalidArgument, "supervise: worker binary not set");
    if (opt_.checkpoint_dir.empty())
      return fail(Errc::kInvalidArgument,
                  "supervise: checkpoint directory not set");
    std::error_code ec;
    std::filesystem::create_directories(opt_.checkpoint_dir, ec);
    if (ec)
      return fail(Errc::kIo, "supervise: cannot create " +
                                 opt_.checkpoint_dir + ": " + ec.message());
    std::filesystem::create_directories(opt_.checkpoint_dir + "/logs", ec);
    if (ec)
      return fail(Errc::kIo, "supervise: cannot create " +
                                 opt_.checkpoint_dir + "/logs: " +
                                 ec.message());
    // kInit frames to workers that died surface as EPIPE write errors, not
    // process death.
    signal(SIGPIPE, SIG_IGN);
    log("fleet: " + std::to_string(fleet_.nodes().size()) + " host(s), " +
        std::to_string(fleet_.total_slots()) + " slot(s)");

    if (auto scanned = scan_checkpoint_dir(); !scanned.ok())
      return scanned.error();
    select_cover();
    schedule_gaps();

    while (true) {
      if (opt_.cancel && opt_.cancel->load(std::memory_order_relaxed))
        return shutdown_cancelled();
      if (opt_.reload_hosts &&
          opt_.reload_hosts->exchange(false, std::memory_order_relaxed))
        reload_fleet();
      promote_waiting();
      retire_idle();
      if (auto dispatched = dispatch_ready(); !dispatched.ok())
        return abort_with(dispatched.error());
      const bool running = std::any_of(
          workers_.begin(), workers_.end(),
          [](const Worker& w) { return w.task.has_value(); });
      if (!running && waiting_.empty() && ready_.empty()) break;
      if (!running && !fleet_.any_member())
        return abort_with(Error{
            Errc::kNoHosts,
            "supervise: every fleet host has left (--hosts-file) with " +
                std::to_string(ready_.size() + waiting_.size()) +
                " shard(s) still pending"});
      poll_channels();
      if (auto reaped = reap(); !reaped.ok()) return abort_with(reaped.error());
      enforce_deadlines();
    }
    retire_all();
    return merge();
  }

 private:
  // ---- scheduling -------------------------------------------------------

  /// Loads every checkpoint already in the directory: complete shards
  /// count as coverage (supervisor crash recovery), incomplete ones are
  /// resumed implicitly when their range is rescheduled under the same
  /// deterministic file name. A corrupt or version-skewed file is fatal —
  /// atomic writes mean it cannot be a torn write, so something real is
  /// wrong with the directory. (Node scratch subdirectories are not
  /// scanned: the iteration is non-recursive by design.)
  Expected<void> scan_checkpoint_dir() {
    std::optional<std::uint64_t> fingerprint;
    for (const auto& entry :
         std::filesystem::directory_iterator(opt_.checkpoint_dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".ckpt")
        continue;
      const std::string path = entry.path().string();
      auto loaded = try_load_shard_checkpoint(path);
      if (!loaded.ok()) return loaded.error();
      const ShardCheckpoint& ck = loaded.value();
      if (ck.trials_total != opt_.trials)
        return fail(Errc::kShardMismatch,
                    "checkpoint " + path + " covers a " +
                        std::to_string(ck.trials_total) +
                        "-trial campaign, expected " +
                        std::to_string(opt_.trials) +
                        " (one campaign per checkpoint directory)");
      if (opt_.fingerprint && ck.fingerprint != *opt_.fingerprint)
        return fail(Errc::kFingerprintMismatch,
                    "checkpoint " + path +
                        " belongs to a different campaign configuration "
                        "than the one requested (one campaign per "
                        "directory; use a fresh --ckpt-dir)");
      if (fingerprint && ck.fingerprint != *fingerprint)
        return fail(Errc::kFingerprintMismatch,
                    "checkpoint " + path +
                        " belongs to a different campaign configuration "
                        "than its siblings (one campaign per directory)");
      fingerprint = ck.fingerprint;
      if (!ck.complete) continue;
      completed_.push_back(Completed{ck.shard_begin, ck.shard_end, path});
      for (const std::uint64_t t : ck.aborted_trials) quarantine(t);
      log("resuming: shard " + range_str(ck.shard_begin, ck.shard_end) +
          " already complete on disk");
    }
    return {};
  }

  /// Reduces the complete checkpoints found on disk to a disjoint cover
  /// (greedy by begin, widest first). Overlaps arise legitimately — a
  /// finished campaign leaves campaign.ckpt covering everything alongside
  /// its shard files — and merging overlapping accumulators would double-
  /// count trials, so redundant files are dropped, not merged. Each drop
  /// is announced: a stale overlapping checkpoint means some past run
  /// worked a range another file already covers, and silently discarding
  /// that work would make "why is my campaign re-running?" undebuggable.
  void select_cover() {
    std::sort(completed_.begin(), completed_.end(),
              [](const Completed& a, const Completed& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end > b.end;
              });
    std::vector<Completed> chosen;
    std::uint64_t cursor = 0;
    for (Completed& c : completed_) {
      if (c.begin >= cursor && c.end > c.begin) {
        cursor = c.end;
        chosen.push_back(std::move(c));
      } else {
        log("warning: discarding stale checkpoint " + c.path + " covering " +
            range_str(c.begin, c.end) +
            " — range already covered by the greedy disjoint cover");
      }
    }
    completed_ = std::move(chosen);
  }

  /// Schedules every trial range not covered by a complete checkpoint or
  /// an already-quarantined singleton, chunked to the shard size. Shards
  /// are sized against the fleet's total slots (topology-aware): ~4 shards
  /// per slot keeps every host busy while bounding the work a dead host
  /// strands.
  void schedule_gaps() {
    std::uint64_t shard_size = opt_.shard_size;
    if (shard_size == 0) {
      const std::uint64_t lanes =
          static_cast<std::uint64_t>(std::max(1, fleet_.total_slots())) * 4;
      shard_size = std::max<std::uint64_t>(1, (opt_.trials + lanes - 1) / lanes);
    }

    // Non-overlapping coverage, greedily by begin (ties: widest first).
    std::vector<Completed> cover = completed_;
    for (const std::uint64_t t : aborted_)
      cover.push_back(Completed{t, t + 1, ""});
    std::sort(cover.begin(), cover.end(), [](const Completed& a,
                                             const Completed& b) {
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.end > b.end;
    });
    std::uint64_t cursor = 0;
    const auto add_gap = [&](std::uint64_t g0, std::uint64_t g1) {
      for (std::uint64_t b = g0; b < g1; b += shard_size) {
        Task t;
        t.begin = b;
        t.end = std::min(g1, b + shard_size);
        ready_.push_back(t);
      }
    };
    for (const Completed& c : cover) {
      if (c.begin > cursor) add_gap(cursor, c.begin);
      cursor = std::max(cursor, c.end);
    }
    if (cursor < opt_.trials) add_gap(cursor, opt_.trials);
  }

  void promote_waiting() {
    const TimePoint now = Clock::now();
    for (auto it = waiting_.begin(); it != waiting_.end();) {
      if (it->ready <= now) {
        ready_.push_back(*it);
        it = waiting_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Re-reads the hosts file after SIGHUP. A malformed file keeps the
  /// current membership — elasticity must never turn a typo into a dead
  /// fleet mid-campaign.
  void reload_fleet() {
    if (opt_.hosts_file.empty()) {
      log("reload requested but no --hosts-file was given; ignoring");
      return;
    }
    auto specs = parse_hosts_file(opt_.hosts_file);
    if (!specs.ok()) {
      log("warning: hosts-file reload failed (" + specs.error().to_string() +
          "); keeping current membership");
      return;
    }
    const auto [joined, drained] = fleet_.reload(specs.value());
    log("hosts-file reloaded: " + std::to_string(joined) + " host(s) joined, " +
        std::to_string(drained) + " draining; " +
        std::to_string(fleet_.total_slots()) + " slot(s) now");
  }

  // ---- process management ----------------------------------------------

  /// Worker processes on `node` not yet reaped; with `retiring` false, only
  /// those whose stdin is still open.
  int alive_on(const Fleet::Node& node, bool retiring) const {
    return static_cast<int>(
        std::count_if(workers_.begin(), workers_.end(), [&](const Worker& w) {
          return w.node == &node && (retiring || w.tx >= 0);
        }));
  }

  /// Closes the stdin of every idle worker its node no longer wants: all of
  /// them on a draining or quarantined node, and those past the node's
  /// slots after a degradation. EOF ends an idle worker with exit 0.
  void retire_idle() {
    const TimePoint now = Clock::now();
    for (Worker& w : workers_) {
      if (w.task || w.tx < 0) continue;
      const Fleet::Node& n = *w.node;
      if (n.draining || n.quarantined(now) ||
          alive_on(n, /*retiring=*/false) > n.spec.slots)
        close_fd(w.tx);
    }
  }

  /// Hands ready tasks to free fleet slots, preferring a node other than
  /// the one the task last failed on (retry-elsewhere). The node's idle
  /// worker takes the task; without one a worker is spawned, unless the
  /// node's retiring workers still hold its slots.
  Expected<void> dispatch_ready() {
    while (!ready_.empty()) {
      Fleet::Node* node = fleet_.acquire(ready_.front().last_node);
      if (node == nullptr) break;
      const auto idle =
          std::find_if(workers_.begin(), workers_.end(), [&](const Worker& w) {
            return w.node == node && !w.task && w.tx >= 0;
          });
      const bool fresh = idle == workers_.end();
      if (fresh && alive_on(*node, /*retiring=*/true) >= node->spec.slots) {
        fleet_.unacquire(*node);
        break;
      }
      Task task = ready_.front();
      ready_.pop_front();
      Expected<void> started = fresh ? spawn(*node) : Expected<void>{};
      if (started.ok())
        started = assign(fresh ? workers_.back() : *idle, task);
      if (started.ok()) continue;
      // The attempt failed before it ran. A launch that never got a task
      // to a fresh worker (fork/pipe/exec, or a worker dead on arrival) is
      // a resource failure of the node; the task retries through the
      // normal backoff path.
      log("launch on " + node->id + " failed: " + started.error().to_string());
      note_host_release(*node, /*success=*/false, /*resource_failure=*/fresh);
      task.last_node = node->id;
      if (auto handled = handle_failure(task, started.error()); !handled.ok())
        return handled.error();
    }
    return {};
  }

  /// Starts an idle worker on `node`; it joins workers_ at the back.
  Expected<void> spawn(Fleet::Node& node) {
    WorkerSpawn spawn;
    spawn.binary = opt_.binary;
    spawn.flags = opt_.worker_flags;
    spawn.stderr_log = opt_.checkpoint_dir + "/logs/worker_" +
                       std::to_string(report_.workers_spawned + 1) + ".log";
    auto handle = spawn_worker(node.spec.host, node.scratch, spawn);
    if (!handle.ok()) return handle.error();
    Worker& w = workers_.emplace_back();
    w.pid = handle.value().pid;
    w.rx = handle.value().rx;
    w.tx = handle.value().tx;
    w.node = &node;
    w.log_path = spawn.stderr_log;
    ++report_.workers_spawned;
    log("worker pid " + std::to_string(w.pid) + " started on " + node.id);
    return {};
  }

  /// Sends `task` to the idle worker `w` as a kInit frame. Resume state
  /// travels in it from the supervisor's durable copy (landed by a prior
  /// attempt on any host, or left by a crashed supervisor). A failed send
  /// means the worker is gone or its channel is: it is killed, and reaped
  /// as an idle worker.
  Expected<void> assign(Worker& w, const Task& task) {
    const std::string ckpt = checkpoint_of(task);
    std::vector<std::uint8_t> resume;
    if (std::filesystem::exists(ckpt)) {
      auto bytes = read_checkpoint_bytes(ckpt);
      if (bytes.ok()) {
        resume = std::move(bytes).value();
      } else {
        log("warning: not shipping resume state for shard " +
            range_str(task.begin, task.end) + ": " +
            bytes.error().to_string());
      }
    }
    const std::vector<std::uint8_t> init =
        encode_init(task.begin, task.end, resume);
    if (auto sent = send_frame(w.tx, FrameType::kInit, init.data(),
                               init.size());
        !sent.ok()) {
      kill(w.pid, SIGKILL);
      close_fd(w.tx);
      return Error{Errc::kTransport, "init frame to pid " +
                                         std::to_string(w.pid) + ": " +
                                         sent.error().message};
    }
    w.task = task;
    w.started = w.last_beat = Clock::now();
    if (!task.last_node.empty() && w.node->id != task.last_node) {
      ++report_.retries_elsewhere;
      log("shard " + range_str(task.begin, task.end) + " moves " +
          task.last_node + " -> " + w.node->id + " (retry-elsewhere" +
          (resume.empty() ? ")" : ", resuming from shipped checkpoint)"));
    }
    log("shard " + range_str(task.begin, task.end) + " -> " + w.node->id +
        " pid " + std::to_string(w.pid) +
        (task.attempts > 0 ? " (attempt " + std::to_string(task.attempts + 1) +
                                 "/" + std::to_string(opt_.max_attempts) + ")"
                           : ""));
    return {};
  }

  /// The supervisor-side durable checkpoint of a task.
  std::string checkpoint_of(const Task& task) const {
    return opt_.checkpoint_dir + "/" +
           shard_checkpoint_name(task.begin, task.end);
  }

  static void close_fd(int& fd) {
    if (fd >= 0) close(fd);
    fd = -1;
  }

  /// Blocks up to the nearest deadline waiting for frames; drains every
  /// readable channel.
  void poll_channels() {
    std::vector<pollfd> fds;
    std::vector<Worker*> owner;
    for (Worker& w : workers_) {
      if (w.rx < 0) continue;
      fds.push_back(pollfd{w.rx, POLLIN, 0});
      owner.push_back(&w);
    }
    const int timeout_ms = next_wakeup_ms();
    const int n = ::poll(fds.empty() ? nullptr : fds.data(),
                         static_cast<nfds_t>(fds.size()), timeout_ms);
    if (n <= 0) return;  // timeout or EINTR: deadlines handled by caller
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      drain(*owner[k]);
    }
  }

  /// Wakeup bound: soonest of running tasks' deadlines, backoff expiries,
  /// and quarantine releases, clamped to [10, 200] ms so reaping and
  /// cancellation stay responsive. A worker whose pipe already closed is
  /// exiting but has no fd left to wake poll() when it is gone, so its
  /// reap is polled every millisecond.
  int next_wakeup_ms() const {
    double soonest = 0.2;
    const TimePoint now = Clock::now();
    const auto until = [&](TimePoint tp) {
      return std::chrono::duration<double>(tp - now).count();
    };
    for (const Worker& w : workers_) {
      if (w.rx < 0) return 1;
      if (!w.task) continue;
      soonest = std::min(
          soonest, until(w.last_beat + to_duration(opt_.heartbeat_timeout_s)));
      if (opt_.shard_timeout_s > 0)
        soonest = std::min(
            soonest, until(w.started + to_duration(opt_.shard_timeout_s)));
    }
    for (const Task& t : waiting_) soonest = std::min(soonest, until(t.ready));
    if (const auto release = fleet_.earliest_release(now))
      soonest = std::min(soonest, until(*release));
    return std::clamp(static_cast<int>(soonest * 1000.0), 10, 200);
  }

  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  /// Reads everything the worker's channel holds, landing each shipped
  /// checkpoint; every byte read stamps last_beat. Short reads and EINTR
  /// are retried by the io layer — a signal landing mid-read must not drop
  /// part of a frame. Structural
  /// damage, or any frame from a worker with no task, poisons the worker:
  /// it is SIGKILLed and a running task fails kTransport / kCheckpointShip
  /// (both retryable, on another host when one exists).
  void drain(Worker& w) {
    std::uint8_t buf[4096];
    while (w.rx >= 0 && !w.channel_corrupt) {
      auto got = io_read_chunk(w.rx, buf, sizeof buf);
      if (!got.ok()) {
        channel_fault(w, got.error());
        return;
      }
      const long n = got.value();
      if (n < 0) break;  // EAGAIN: nothing more to read now
      if (n == 0) {      // worker closed its end (exiting)
        close_fd(w.rx);
        break;
      }
      w.last_beat = Clock::now();
      std::vector<std::vector<std::uint8_t>> images;
      auto fed = w.channel.feed(buf, static_cast<std::size_t>(n), images);
      for (const std::vector<std::uint8_t>& image : images) {
        if (!w.task)
          channel_fault(w, Error{Errc::kTransport,
                                 "frame from a worker with no task"});
        else
          land_checkpoint(w, image);
        if (w.channel_corrupt) return;
      }
      if (!fed.ok()) {
        channel_fault(w, fed.error());
        return;
      }
    }
  }

  /// Validates and lands a shipped checkpoint image as the supervisor's
  /// durable copy for the worker's task (atomic tmp + rename). An image
  /// that fails to parse or covers the wrong range is channel damage, one
  /// of another campaign a fatal fingerprint mismatch; a local write
  /// failure is a plain retryable kIo for this attempt. A complete image is
  /// the task's last frame: the task is done and the worker idle.
  void land_checkpoint(Worker& w, const std::vector<std::uint8_t>& bytes) {
    const Task& task = *w.task;
    const std::string origin = "checkpoint frame from " + w.node->id;
    auto parsed = parse_checkpoint_bytes(bytes.data(), bytes.size(), origin);
    if (!parsed.ok()) {
      channel_fault(w, Error{Errc::kCheckpointShip,
                             origin + ": " + parsed.error().message});
      return;
    }
    const ShardCheckpoint& ck = parsed.value();
    // A worker whose flags define another campaign: retrying cannot help.
    if (opt_.fingerprint && ck.fingerprint != *opt_.fingerprint) {
      channel_fault(w, Error{Errc::kFingerprintMismatch,
                             origin + ": image belongs to a different "
                                      "campaign configuration than the one "
                                      "requested"});
      return;
    }
    if (ck.shard_begin != task.begin || ck.shard_end != task.end ||
        ck.trials_total != opt_.trials) {
      channel_fault(
          w, Error{Errc::kCheckpointShip,
                   origin + ": image covers shard " +
                       range_str(ck.shard_begin, ck.shard_end) + " of " +
                       std::to_string(ck.trials_total) +
                       " trials, expected " + range_str(task.begin, task.end) +
                       " of " + std::to_string(opt_.trials)});
      return;
    }
    const std::string path = checkpoint_of(task);
    auto written = write_file_atomic(
        path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size()));
    if (!written.ok()) {
      channel_fault(w, Error{Errc::kIo, "landing " + path + ": " +
                                            written.error().message});
      return;
    }
    ++report_.checkpoints_shipped;
    if (!ck.complete) return;
    completed_.push_back(Completed{task.begin, task.end, path});
    note_host_release(*w.node, /*success=*/true);
    log("shard " + range_str(task.begin, task.end) + " complete (" +
        std::to_string(ck.next_trial - ck.shard_begin) + " trials)");
    w.task.reset();
  }

  /// Marks a worker's channel unusable and kills the process; the reap
  /// path turns this into a retryable failure of its task carrying `err`.
  void channel_fault(Worker& w, const Error& err) {
    if (w.channel_corrupt) return;
    w.channel_corrupt = true;
    w.channel_error = err;
    log("pid " + std::to_string(w.pid) + ": channel fault: " +
        err.to_string() + "; sending SIGKILL");
    kill(w.pid, SIGKILL);
    close_fd(w.rx);
  }

  /// SIGKILLs workers whose task missed its heartbeat deadline or exceeded
  /// the shard wall-clock budget (counted from the kInit send). An idle
  /// worker has no deadline. The kill surfaces through reap() as a
  /// kTimeout failure (retryable).
  void enforce_deadlines() {
    const TimePoint now = Clock::now();
    for (Worker& w : workers_) {
      if (!w.task || w.watchdog_killed || w.channel_corrupt) continue;
      const bool hb_expired =
          now - w.last_beat > to_duration(opt_.heartbeat_timeout_s);
      const bool wall_expired =
          opt_.shard_timeout_s > 0 &&
          now - w.started > to_duration(opt_.shard_timeout_s);
      if (!hb_expired && !wall_expired) continue;
      log("pid " + std::to_string(w.pid) + " shard " +
          range_str(w.task->begin, w.task->end) +
          (hb_expired ? ": heartbeat deadline missed" : ": wall-clock budget exceeded") +
          "; sending SIGKILL");
      kill(w.pid, SIGKILL);
      w.watchdog_killed = true;
      ++report_.watchdog_kills;
    }
  }

  /// Reaps exited workers. A worker that dies with a task fails that task;
  /// an idle one just frees its slot, which respawns on demand.
  Expected<void> reap() {
    for (auto it = workers_.begin(); it != workers_.end();) {
      int status = 0;
      if (waitpid(it->pid, &status, WNOHANG) != it->pid) {
        ++it;
        continue;
      }
      Worker w = std::move(*it);
      it = workers_.erase(it);
      const bool retiring = w.tx < 0;
      drain(w);  // frames written between the last poll and exit
      close_fd(w.rx);
      close_fd(w.tx);
      if (w.task) {
        if (auto handled = handle_exit(w, status); !handled.ok())
          return handled.error();
      } else if (!retiring) {
        log("idle worker pid " + std::to_string(w.pid) + " on " + w.node->id +
            " exited (status " + std::to_string(status) + ")");
      }
    }
    return {};
  }

  /// Gives a slot back to the fleet and narrates a degradation or a tripped
  /// quarantine.
  void note_host_release(Fleet::Node& node, bool success,
                         bool resource_failure = false) {
    const ReleaseOutcome out = fleet_.release(node, success, resource_failure);
    if (out.degraded) {
      ++report_.degradations;
      log("host " + node.id + " degraded to " +
          std::to_string(node.spec.slots) +
          " slot(s) after 2 resource failures in a row");
    }
    if (out.quarantined) {
      ++report_.host_quarantines;
      log("host " + node.id + " quarantined for " +
          std::to_string(out.quarantine_s) + "s after " +
          std::to_string(opt_.host_fail_limit) +
          " consecutive failures (quarantine #" +
          std::to_string(node.quarantine_count) + ")");
    }
  }

  /// Last lines of the worker's stderr log, prefixed [host:shard_B_E] for
  /// the failing task, so a failure report carries the worker's own words.
  void log_failure_tail(const Worker& w, const Task& task) {
    if (w.log_path.empty()) return;
    const auto lines = tail_lines(w.log_path, 10);
    if (lines.empty()) return;
    const std::string prefix = "[" + w.node->spec.host + ":shard_" +
                               std::to_string(task.begin) + "_" +
                               std::to_string(task.end) + "] ";
    log("last " + std::to_string(lines.size()) + " stderr line(s):");
    for (const std::string& line : lines) log(prefix + line);
  }

  /// Fails the task of a worker that exited before a complete checkpoint
  /// for it landed, classified from the exit status.
  Expected<void> handle_exit(const Worker& w, int status) {
    Task task = *w.task;
    task.last_node = w.node->id;
    Error err;
    bool resource_failure = false;
    if (w.channel_corrupt) {
      err = w.channel_error;
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      err.code = w.watchdog_killed ? Errc::kTimeout : Errc::kWorkerCrash;
      err.message = w.watchdog_killed
                        ? "killed by watchdog (SIGKILL)"
                        : std::string("died on signal ") + strsignal(sig);
    } else {
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (code == 127) {
        err = Error{Errc::kWorkerCrash, "exec failed (exit 127)"};
      } else if (code == 0) {
        err = Error{Errc::kIo, "worker exited 0 before a complete checkpoint "
                               "for its task landed"};
      } else {
        err.code = errc_from_exit(code);
        err.message = "exited with status " + std::to_string(code) + " (" +
                      std::string(errc_name(err.code)) + ")";
      }
      resource_failure = code == 127 || err.code == Errc::kOutOfMemory;
    }
    note_host_release(*w.node, /*success=*/false, resource_failure);
    log_failure_tail(w, task);
    return handle_failure(task, err);
  }

  /// Retry with backoff, bisect on exhaustion, quarantine at single-trial
  /// granularity; fatal codes abort the campaign.
  Expected<void> handle_failure(Task task, const Error& err) {
    log("shard " + range_str(task.begin, task.end) + " failed: " +
        err.to_string());
    if (!err.retryable())
      return Error{err.code, "shard " + range_str(task.begin, task.end) +
                                 ": " + err.message + " (fatal; aborting)"};
    ++task.attempts;
    ++report_.retries;
    if (task.attempts < opt_.max_attempts) {
      task.ready = Clock::now() + to_duration(backoff_seconds(task));
      waiting_.push_back(task);
      return {};
    }
    if (task.end - task.begin == 1) {
      quarantine(task.begin);
      log("trial " + std::to_string(task.begin) +
          " fails every attempt; quarantined (aborted_trials)");
      if (aborted_.size() > opt_.max_quarantine)
        return fail(Errc::kQuarantineOverflow,
                    "quarantined " + std::to_string(aborted_.size()) +
                        " trials, more than the --max-quarantine budget of " +
                        std::to_string(opt_.max_quarantine));
      return {};
    }
    // Bisect: both halves restart the attempt budget; the half without the
    // poison completes, the other converges on it in O(log shard) splits.
    // Both halves inherit last_node so they too prefer a different host.
    const std::uint64_t mid = task.begin + (task.end - task.begin) / 2;
    ++report_.bisections;
    log("bisecting " + range_str(task.begin, task.end) + " -> " +
        range_str(task.begin, mid) + " + " + range_str(mid, task.end));
    ready_.push_back(Task{task.begin, mid, 0, {}, task.last_node});
    ready_.push_back(Task{mid, task.end, 0, {}, task.last_node});
    return {};
  }

  /// Exponential backoff with deterministic jitter in [1x, 1.5x): the
  /// schedule is reproducible for a given jitter seed, yet relaunches of
  /// sibling shards spread out instead of stampeding.
  double backoff_seconds(const Task& task) const {
    double d = opt_.backoff_base_s;
    for (int i = 1; i < task.attempts; ++i) d *= 2;
    d = std::min(d, opt_.backoff_cap_s);
    std::uint64_t h = opt_.jitter_seed ^
                      (task.begin * 1000003ULL + task.end) ^
                      (static_cast<std::uint64_t>(task.attempts) << 56);
    splitmix64(h);
    const double u =
        static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;  // uniform [0, 1)
    return d * (1.0 + 0.5 * u);
  }

  void quarantine(std::uint64_t trial) {
    if (std::find(aborted_.begin(), aborted_.end(), trial) == aborted_.end())
      aborted_.push_back(trial);
  }

  // ---- shutdown & merge -------------------------------------------------

  /// SIGKILLs and reaps every worker left.
  void kill_all() {
    for (Worker& w : workers_) {
      kill(w.pid, SIGKILL);
      int status = 0;
      waitpid(w.pid, &status, 0);
      close_fd(w.rx);
      close_fd(w.tx);
    }
    workers_.clear();
  }

  /// Fatal error: kill every worker, return `err`.
  Error abort_with(Error err) {
    kill_all();
    return err;
  }

  /// Closes every worker's stdin and waits for the exits: an idle worker
  /// exits 0 on EOF, a SIGTERMed one finishes its batch and ships it first,
  /// and those last frames are landed. Stragglers past the grace period
  /// are SIGKILLed.
  void retire_all() {
    for (Worker& w : workers_) close_fd(w.tx);
    const TimePoint deadline =
        Clock::now() + to_duration(std::max(5.0, opt_.heartbeat_timeout_s));
    while (!workers_.empty() && Clock::now() < deadline) {
      poll_channels();
      for (auto it = workers_.begin(); it != workers_.end();) {
        int status = 0;
        if (waitpid(it->pid, &status, WNOHANG) != it->pid) {
          ++it;
          continue;
        }
        drain(*it);
        close_fd(it->rx);
        it = workers_.erase(it);
      }
    }
    kill_all();
  }

  /// SIGTERM the running workers and retire every worker. At most one
  /// batch per worker is lost, and a later `supervise` resumes from the
  /// same directory.
  Expected<SupervisorReport> shutdown_cancelled() {
    log("cancellation requested; stopping " +
        std::to_string(workers_.size()) + " worker(s)");
    for (const Worker& w : workers_)
      if (w.task) kill(w.pid, SIGTERM);
    retire_all();
    report_.cancelled = true;
    report_.aborted_trials = aborted_;
    std::sort(report_.aborted_trials.begin(), report_.aborted_trials.end());
    return report_;
  }

  /// Loads every completed shard checkpoint and merges them exactly
  /// (merge_checkpoints), requiring the shards and quarantined trials to
  /// cover the whole campaign. The result is byte-identical to the
  /// monolithic run over the same trials — quarantined trials excepted, and
  /// those are enumerated. A shard of another campaign left in the
  /// directory is a fatal fingerprint mismatch here, not a silent mix.
  Expected<SupervisorReport> merge() {
    std::vector<NamedCheckpoint> shards;
    for (const Completed& c : completed_) {
      auto loaded = try_load_shard_checkpoint(c.path);
      if (!loaded.ok()) return loaded.error();
      shards.push_back(NamedCheckpoint{c.path, std::move(loaded).value()});
    }
    auto merged = merge_checkpoints(shards, aborted_);
    if (!merged.ok()) return merged.error();
    const ShardCheckpoint& ck = merged.value();
    if (!ck.complete)
      return fail(Errc::kInternal,
                  "supervise: coverage ends at " +
                      std::to_string(ck.next_trial) + " of " +
                      std::to_string(opt_.trials));
    // Leave the merged state behind as a self-describing checkpoint that
    // carries the same geometry/op identity as its shards.
    if (auto saved = try_save_shard_checkpoint(
            opt_.checkpoint_dir + "/campaign.ckpt", ck);
        !saved.ok())
      return saved.error();
    report_.acc = ck.acc;
    report_.fingerprint = ck.fingerprint;
    report_.masked_exits = ck.masked_exits;
    report_.aborted_trials = ck.aborted_trials;
    return std::move(report_);
  }

  void log(const std::string& what) const {
    if (opt_.verbose) std::cerr << "[supervise] " << what << "\n";
  }

  const SupervisorOptions& opt_;
  SupervisorReport report_;
  Fleet fleet_;

  std::deque<Task> ready_;
  std::vector<Task> waiting_;
  std::list<Worker> workers_;  ///< live worker processes, idle or not
  std::vector<Completed> completed_;
  std::vector<std::uint64_t> aborted_;
};

}  // namespace

Expected<SupervisorReport> supervise(const SupervisorOptions& opt) {
  auto hosts = !opt.hosts_file.empty() ? parse_hosts_file(opt.hosts_file)
               : !opt.hosts.empty()
                   ? parse_hosts(opt.hosts)
                   : parse_hosts("localhost:" + std::to_string(opt.workers));
  if (!hosts.ok()) return hosts.error();
  return Supervisor(opt, std::move(hosts).value()).run();
}

}  // namespace dnnfi::fault
