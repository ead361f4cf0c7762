#include "dnnfi/fault/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "dnnfi/common/env.h"
#include "dnnfi/common/serial.h"
#include "dnnfi/fault/checkpoint.h"

namespace dnnfi::fault {

namespace {

Error transport_error(const std::string& what) {
  return Error{Errc::kTransport, what};
}

Error transport_errno(const std::string& what) {
  return transport_error(what + ": " + std::strerror(errno));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

constexpr std::size_t kFrameHeader = 9;  // u32 len + u8 type + u32 crc

bool known_frame_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(FrameType::kInit) ||
         t == static_cast<std::uint8_t>(FrameType::kCheckpoint);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

constexpr std::size_t kInitFixed = 16;  // u64 begin + u64 end

}  // namespace

// ---- hardened low-level I/O ----------------------------------------------

Expected<void> io_write_full(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return transport_errno("write to fd " + std::to_string(fd) + " failed");
    }
    off += static_cast<std::size_t>(w);
  }
  return {};
}

Expected<long> io_read_chunk(int fd, std::uint8_t* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0) return static_cast<long>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1L;
    return transport_errno("read from fd " + std::to_string(fd) + " failed");
  }
}

// ---- frame codec ---------------------------------------------------------

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::uint8_t* payload,
                                       std::size_t n) {
  DNNFI_EXPECTS(n <= kMaxFramePayload);
  std::vector<std::uint8_t> out(kFrameHeader + n);
  store_u32(out.data(), static_cast<std::uint32_t>(n));
  out[4] = static_cast<std::uint8_t>(type);
  store_u32(out.data() + 5, crc32(payload, n));
  if (n != 0) std::memcpy(out.data() + kFrameHeader, payload, n);
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before growing; keeps the buffer bounded by
  // one frame plus whatever the last read appended.
  if (pos_ != 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

Expected<std::optional<Frame>> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeader) return std::optional<Frame>{};
  const std::uint8_t* h = buf_.data() + pos_;
  const std::uint32_t len = load_u32(h);
  if (len > kMaxFramePayload)
    return transport_error("frame length " + std::to_string(len) +
                           " exceeds limit " + std::to_string(kMaxFramePayload) +
                           " — stream is damaged");
  if (!known_frame_type(h[4]))
    return transport_error("unknown frame type " + std::to_string(h[4]) +
                           " — stream is damaged");
  if (avail < kFrameHeader + len) return std::optional<Frame>{};
  const std::uint32_t stored_crc = load_u32(h + 5);
  const std::uint32_t actual_crc = crc32(h + kFrameHeader, len);
  if (stored_crc != actual_crc)
    return transport_error(
        "frame CRC mismatch (stored " + std::to_string(stored_crc) +
        ", computed " + std::to_string(actual_crc) + ") — stream is damaged");
  Frame f;
  f.type = static_cast<FrameType>(h[4]);
  f.payload.assign(h + kFrameHeader, h + kFrameHeader + len);
  pos_ += kFrameHeader + len;
  return std::optional<Frame>{std::move(f)};
}

Expected<void> send_frame(int fd, FrameType type, const std::uint8_t* payload,
                          std::size_t n) {
  const std::vector<std::uint8_t> wire = encode_frame(type, payload, n);
  return io_write_full(fd, wire.data(), wire.size());
}

// ---- kInit: one task for a persistent worker ----------------------------

std::vector<std::uint8_t> encode_init(std::uint64_t begin, std::uint64_t end,
                                      const std::vector<std::uint8_t>& resume) {
  std::vector<std::uint8_t> out(kInitFixed + resume.size());
  store_u64(out.data(), begin);
  store_u64(out.data() + 8, end);
  if (!resume.empty())
    std::memcpy(out.data() + kInitFixed, resume.data(), resume.size());
  return out;
}

Expected<TaskInit> parse_init(const std::uint8_t* data, std::size_t n) {
  if (n < kInitFixed)
    return transport_error("init frame payload is " + std::to_string(n) +
                           " bytes, shorter than its " +
                           std::to_string(kInitFixed) + "-byte header");
  TaskInit t;
  t.begin = load_u64(data);
  t.end = load_u64(data + 8);
  t.resume.assign(data + kInitFixed, data + n);
  return t;
}

std::string shard_checkpoint_name(std::uint64_t begin, std::uint64_t end) {
  return "shard_" + std::to_string(begin) + "_" + std::to_string(end) +
         ".ckpt";
}

Expected<std::string> accept_task(const TaskInit& task, std::uint64_t trials,
                                  const std::string& scratch_dir) {
  if (!(task.begin < task.end && task.end <= trials))
    return Error{Errc::kShardMismatch,
                 "init frame range [" + std::to_string(task.begin) + ", " +
                     std::to_string(task.end) + ") is not inside a " +
                     std::to_string(trials) + "-trial campaign"};
  const std::string path =
      (std::filesystem::path(scratch_dir) /
       shard_checkpoint_name(task.begin, task.end))
          .string();
  if (!task.resume.empty()) {
    auto landed = write_checkpoint_bytes(path, task.resume.data(),
                                         task.resume.size());
    if (!landed.ok()) return landed.error();
    return path;
  }
  // Start fresh: a stale checkpoint from an earlier attempt on this node
  // would resurrect state the supervisor has already moved past.
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec)
    return Error{Errc::kIo, "cannot remove stale " + path + ": " + ec.message()};
  return path;
}

Expected<std::optional<TaskInit>> InitReader::next(
    const std::atomic<bool>* cancel) {
  std::uint8_t chunk[4096];
  while (true) {
    auto parsed = dec_.next();
    if (!parsed.ok()) return parsed.error();
    if (parsed.value().has_value()) {
      const Frame& f = *parsed.value();
      if (f.type != FrameType::kInit)
        return transport_error("expected init frame, got type " +
                               std::to_string(static_cast<int>(f.type)));
      auto task = parse_init(f.payload.data(), f.payload.size());
      if (!task.ok()) return task.error();
      return std::optional<TaskInit>{std::move(task).value()};
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return Error{Errc::kInterrupted, "interrupted while waiting for a task"};
    // poll(2) is never restarted after a signal handler (SA_RESTART or
    // not), so SIGTERM wakes it and the flag check above runs; the timeout
    // covers a signal that lands between that check and the poll.
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready < 0 && errno != EINTR) return transport_errno("poll failed");
    if (ready <= 0) continue;
    auto got = io_read_chunk(fd_, chunk, sizeof(chunk));
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      if (dec_.buffered() == 0) return std::optional<TaskInit>{};
      return transport_error("supervisor closed the channel mid-frame");
    }
    if (got.value() > 0) dec_.feed(chunk, static_cast<std::size_t>(got.value()));
  }
}

// ---- supervisor-side channel ---------------------------------------------

Expected<void> WorkerChannel::feed(
    const std::uint8_t* data, std::size_t n,
    std::vector<std::vector<std::uint8_t>>& out) {
  decoder_.feed(data, n);
  while (true) {
    auto parsed = decoder_.next();
    if (!parsed.ok()) return parsed.error();
    if (!parsed.value().has_value()) return {};
    Frame& f = *parsed.value();
    if (f.type == FrameType::kInit)
      return transport_error(
          "worker sent an init frame (supervisor-only direction)");
    out.push_back(std::move(f.payload));
  }
}

// ---- worker spawning -----------------------------------------------------

bool is_local_host(const std::string& host) {
  return host == "localhost" || host == "local" || host == "127.0.0.1" ||
         host == "::1";
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

Expected<WorkerHandle> spawn_worker(const std::string& host,
                                    const std::string& scratch_dir,
                                    const WorkerSpawn& s) {
  std::vector<std::string> words;
  words.push_back(s.binary);
  words.push_back("worker");
  for (const auto& f : s.flags) words.push_back(f);
  words.push_back("--ckpt-dir");
  words.push_back(scratch_dir + "/");

  // The exec'd argv: the worker command directly for localhost nodes, or an
  // ssh client carrying the shell-quoted command for real remote hosts.
  std::vector<std::string> args;
  if (is_local_host(host)) {
    args = words;
  } else {
    std::string command;
    for (const auto& w : words) {
      if (!command.empty()) command += ' ';
      command += shell_quote(w);
    }
    if (const auto fake = env_string("DNNFI_FLEET_SSH")) {
      args.push_back(*fake);
    } else {
      args.push_back("ssh");
      args.push_back("-oBatchMode=yes");
    }
    args.push_back(host);
    args.push_back(std::move(command));
  }

  int to_worker[2];   // supervisor -> worker stdin (kInit frames)
  int from_worker[2]; // worker stdout -> supervisor (checkpoints)
  if (pipe(to_worker) != 0) return transport_errno("pipe failed");
  if (pipe(from_worker) != 0) {
    close(to_worker[0]);
    close(to_worker[1]);
    return transport_errno("pipe failed");
  }
  // Parent-kept ends must not leak into sibling workers: a sibling holding
  // this worker's tx would hide the EOF that ends it.
  fcntl(to_worker[1], F_SETFD, FD_CLOEXEC);
  fcntl(from_worker[0], F_SETFD, FD_CLOEXEC);

  const pid_t pid = fork();
  if (pid < 0) {
    close(to_worker[0]);
    close(to_worker[1]);
    close(from_worker[0]);
    close(from_worker[1]);
    return transport_errno("fork failed");
  }
  if (pid == 0) {
    // Child: frames ride the standard streams so the same wiring works
    // through an ssh hop.
    dup2(to_worker[0], 0);
    dup2(from_worker[1], 1);
    close(to_worker[0]);
    close(to_worker[1]);
    close(from_worker[0]);
    close(from_worker[1]);
    if (!s.stderr_log.empty()) {
      const int lfd =
          open(s.stderr_log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (lfd >= 0) {
        dup2(lfd, 2);
        if (lfd != 2) close(lfd);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execvp(argv[0], argv.data());
    _exit(127);
  }
  close(to_worker[0]);
  close(from_worker[1]);
  fcntl(from_worker[0], F_SETFL, O_NONBLOCK);

  WorkerHandle h;
  h.pid = pid;
  h.rx = from_worker[0];
  h.tx = to_worker[1];
  return h;
}

}  // namespace dnnfi::fault
