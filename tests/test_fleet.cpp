// Distributed-fleet robustness: frame codec, channel, host-spec parser and
// fleet health properties at the unit level, then end-to-end fleet
// campaigns exec'ing the real dnnfi_campaign binary (path injected as
// DNNFI_CAMPAIGN_BIN). The contract under test is the same one
// test_supervisor.cpp pins for `--workers`: merged stats byte-identical to
// a monolithic run, no matter what happens to the fleet in between — a
// whole node SIGKILLed repeatedly, a host that fails every spawn
// (quarantine), or membership rewritten mid-campaign via SIGHUP.
//
// "Remote" hosts here are localhost fleet nodes (direct exec, private
// scratch dirs, full ship-over-frames protocol) or fake-ssh hosts whose
// transport is a stub script via DNNFI_FLEET_SSH — the wire protocol and
// scheduling are exactly those of a real multi-machine fleet; only the
// network hop is simulated.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/fleet.h"
#include "dnnfi/fault/transport.h"

namespace dnnfi::fault {
namespace {

namespace fs = std::filesystem;

#ifndef DNNFI_CAMPAIGN_BIN
#error "build must define DNNFI_CAMPAIGN_BIN"
#endif
#ifndef DNNFI_REPO_MODELS
#error "build must define DNNFI_REPO_MODELS"
#endif

// ---- frame codec properties ----------------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FrameCodec, RoundTripsAcrossArbitraryChunkBoundaries) {
  // Several frames of different types and sizes, delivered one byte at a
  // time: every frame must come out intact, in order, and never early.
  const std::vector<std::pair<FrameType, std::vector<std::uint8_t>>> frames = {
      {FrameType::kInit, bytes_of("")},
      {FrameType::kCheckpoint, bytes_of("\x01\x02\x03\x04\x05\x06\x07\x08")},
      {FrameType::kCheckpoint, bytes_of(std::string(3000, 'x') + "tail")},
      {FrameType::kInit, bytes_of("01234567")},
  };
  std::vector<std::uint8_t> wire;
  for (const auto& [type, payload] : frames) {
    const auto f = encode_frame(type, payload.data(), payload.size());
    wire.insert(wire.end(), f.begin(), f.end());
  }

  FrameDecoder dec;
  std::size_t decoded = 0;
  for (const std::uint8_t b : wire) {
    dec.feed(&b, 1);
    while (true) {
      auto next = dec.next();
      ASSERT_TRUE(next.ok()) << next.error().to_string();
      if (!next.value().has_value()) break;
      ASSERT_LT(decoded, frames.size()) << "decoder invented a frame";
      EXPECT_EQ(next.value()->type, frames[decoded].first);
      EXPECT_EQ(next.value()->payload, frames[decoded].second);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, frames.size());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, TruncatedFrameStaysPendingNotAnError) {
  const auto payload = bytes_of("truncate me somewhere");
  const auto wire =
      encode_frame(FrameType::kCheckpoint, payload.data(), payload.size());
  // Every proper prefix must decode to "no frame yet" without error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    auto next = dec.next();
    ASSERT_TRUE(next.ok()) << "prefix of " << cut << " bytes: "
                           << next.error().to_string();
    EXPECT_FALSE(next.value().has_value()) << "decoded from " << cut
                                           << " of " << wire.size()
                                           << " bytes";
  }
}

TEST(FrameCodec, EveryPayloadBitFlipIsRejectedByCrc) {
  const auto payload = bytes_of("integrity matters");
  auto wire =
      encode_frame(FrameType::kCheckpoint, payload.data(), payload.size());
  const std::size_t header = wire.size() - payload.size();
  for (std::size_t i = header; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = wire;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder dec;
      dec.feed(damaged.data(), damaged.size());
      auto next = dec.next();
      ASSERT_FALSE(next.ok()) << "flipped bit " << bit << " of byte " << i
                              << " went unnoticed";
      EXPECT_EQ(next.error().code, Errc::kTransport);
    }
  }
}

TEST(FrameCodec, OversizedLengthAndUnknownTypeAreTransportErrors) {
  // A length past the bound must be rejected from the header alone —
  // before any payload arrives and long before any allocation.
  std::uint8_t oversized[9] = {};
  const std::uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    oversized[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  oversized[4] = 3;  // kCheckpoint
  FrameDecoder dec;
  dec.feed(oversized, sizeof oversized);
  auto next = dec.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, Errc::kTransport);

  // Type 2 carried a progress beat in an earlier protocol; it is no longer
  // a FrameType, and neither are 0 and 99.
  for (const int type : {0, 2, 99}) {
    SCOPED_TRACE(::testing::Message() << "type " << type);
    const auto payload = bytes_of("x");
    auto wire =
        encode_frame(FrameType::kCheckpoint, payload.data(), payload.size());
    wire[4] = static_cast<std::uint8_t>(type);
    FrameDecoder dec2;
    dec2.feed(wire.data(), wire.size());
    auto next2 = dec2.next();
    ASSERT_FALSE(next2.ok());
    EXPECT_EQ(next2.error().code, Errc::kTransport);
  }
}

// ---- kInit: one task for a persistent worker -----------------------------

/// `n` pseudo-random bytes from a splitmix64 stream seeded with `seed`.
std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(splitmix64(seed));
  return out;
}

/// `<tmp>/<stem>_<pid>`: a scratch path no other test process shares, so
/// two runs of this suite at once (two build trees on one machine) never
/// remove each other's files or kill each other's workers.
fs::path scratch_path(const std::string& stem) {
  return fs::temp_directory_path() / (stem + "_" + std::to_string(getpid()));
}

/// A valid checkpoint file image for shard [begin, end) of `trials`.
std::vector<std::uint8_t> checkpoint_image(std::uint64_t begin,
                                           std::uint64_t end,
                                           std::uint64_t trials) {
  ShardCheckpoint ck;
  ck.trials_total = trials;
  ck.shard_begin = begin;
  ck.shard_end = end;
  ck.next_trial = begin;
  const fs::path tmp = scratch_path("dnnfi_init_image");
  EXPECT_TRUE(try_save_shard_checkpoint(tmp.string(), ck).ok());
  auto bytes = read_checkpoint_bytes(tmp.string());
  fs::remove(tmp);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? std::move(bytes).value() : std::vector<std::uint8_t>{};
}

TEST(FrameCodec, InitPayloadRoundTripsThroughTheDecoder) {
  const auto image = random_bytes(7, 300);
  for (const bool with_image : {false, true}) {
    SCOPED_TRACE(with_image ? "resume image" : "start fresh");
    const std::uint64_t begin = 0x0123456789ABCDEFULL;
    const std::uint64_t end = 0xFEDCBA9876543210ULL;
    const auto payload =
        encode_init(begin, end, with_image ? image : std::vector<std::uint8_t>{});
    EXPECT_EQ(payload.size(), 16u + (with_image ? image.size() : 0));
    const auto wire =
        encode_frame(FrameType::kInit, payload.data(), payload.size());
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    auto frame = dec.next();
    ASSERT_TRUE(frame.ok() && frame.value().has_value());
    auto task = parse_init(frame.value()->payload.data(),
                           frame.value()->payload.size());
    ASSERT_TRUE(task.ok()) << task.error().to_string();
    EXPECT_EQ(task.value().begin, begin);
    EXPECT_EQ(task.value().end, end);
    EXPECT_EQ(task.value().resume,
              with_image ? image : std::vector<std::uint8_t>{});
  }
}

TEST(FrameCodec, InitParserSurvivesEveryByteFlipAndTruncation) {
  // Mutation sweep: every single-byte change (all 255 XOR masks at every
  // offset) and every truncation, of a kInit payload and of its whole
  // frame, must decode to a task or fail with kTransport — never crash,
  // hang or over-read. The image and the range come from a splitmix64
  // stream; a start-fresh payload is swept too.
  std::uint64_t seed = 2017;
  const std::uint64_t begin = splitmix64(seed) >> 40;
  const std::uint64_t end = begin + (splitmix64(seed) >> 48) + 1;
  const auto image = random_bytes(splitmix64(seed), 40);
  for (const std::vector<std::uint8_t>& resume :
       {std::vector<std::uint8_t>{}, image}) {
    const auto payload = encode_init(begin, end, resume);
    const auto wire =
        encode_frame(FrameType::kInit, payload.data(), payload.size());
    const auto check_payload = [](const std::vector<std::uint8_t>& p) {
      auto task = parse_init(p.data(), p.size());
      if (!task.ok()) {
        EXPECT_EQ(task.error().code, Errc::kTransport);
        return;
      }
      EXPECT_EQ(16 + task.value().resume.size(), p.size());
    };
    const auto check_wire = [&](const std::vector<std::uint8_t>& w) {
      FrameDecoder dec;
      dec.feed(w.data(), w.size());
      auto frame = dec.next();
      if (!frame.ok()) {
        EXPECT_EQ(frame.error().code, Errc::kTransport);
      } else if (frame.value().has_value()) {
        check_payload(frame.value()->payload);
      }
    };
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int mask = 1; mask < 256; ++mask) {
        if (i < payload.size()) {
          auto p = payload;
          p[i] ^= static_cast<std::uint8_t>(mask);
          check_payload(p);
        }
        auto w = wire;
        w[i] ^= static_cast<std::uint8_t>(mask);
        check_wire(w);
      }
    }
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      if (cut < payload.size())
        check_payload(std::vector<std::uint8_t>(payload.data(),
                                                payload.data() + cut));
      check_wire(std::vector<std::uint8_t>(wire.data(), wire.data() + cut));
    }
  }
}

TEST(FrameCodec, InitReaderStopsAtEofCancelAndTruncation) {
  // Over a real pipe: two tasks, then a frame cut short by the writer's
  // close — the reader yields both tasks and then kTransport, not a hang.
  // EOF on a frame boundary is the clean "no more work" nullopt.
  const auto read_all = [](const std::vector<std::uint8_t>& wire) {
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    EXPECT_TRUE(io_write_full(fds[1], wire.data(), wire.size()).ok());
    close(fds[1]);
    InitReader reader(fds[0]);
    std::vector<Expected<std::optional<TaskInit>>> got;
    while (true) {
      got.push_back(reader.next(nullptr));
      if (!got.back().ok() || !got.back().value().has_value()) break;
    }
    close(fds[0]);
    return got;
  };
  std::vector<std::uint8_t> wire;
  for (std::uint64_t b : {0u, 8u}) {
    const auto p = encode_init(b, b + 8, {});
    const auto f = encode_frame(FrameType::kInit, p.data(), p.size());
    wire.insert(wire.end(), f.begin(), f.end());
  }
  auto clean = read_all(wire);
  ASSERT_EQ(clean.size(), 3u);
  EXPECT_EQ(clean[1].value()->begin, 8u);
  EXPECT_FALSE(clean[2].value().has_value());

  wire.resize(wire.size() + 5, 0);  // the head of a frame that never ends
  auto cut = read_all(wire);
  ASSERT_EQ(cut.size(), 3u);
  ASSERT_FALSE(cut[2].ok());
  EXPECT_EQ(cut[2].error().code, Errc::kTransport);

  // A set cancel flag ends the wait on an idle, still-open channel.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::atomic<bool> cancel{true};
  InitReader reader(fds[0]);
  auto stopped = reader.next(&cancel);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.error().code, Errc::kInterrupted);
  close(fds[0]);
  close(fds[1]);
}

TEST(FrameCodec, OutOfRangeTaskIsRejectedBeforeAnyCheckpointIsTouched) {
  const fs::path dir = scratch_path("dnnfi_accept_task");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t trials = 64;
  // Stale files named for each bad range: a start-fresh task would remove
  // them, a resume task would overwrite them, if the range went unchecked.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> bad = {
      {8, 8}, {9, 8}, {60, 65}, {0, ~0ULL}};
  const auto image = checkpoint_image(0, 8, trials);
  for (const auto& [b, e] : bad) {
    std::ofstream(dir / shard_checkpoint_name(b, e)) << "stale";
    for (const bool with_image : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "[" << b << ", " << e << ")"
                                        << (with_image ? " resume" : " fresh"));
      TaskInit task;
      task.begin = b;
      task.end = e;
      if (with_image) task.resume = image;
      auto accepted = accept_task(task, trials, dir.string() + "/");
      ASSERT_FALSE(accepted.ok());
      EXPECT_EQ(accepted.error().code, Errc::kShardMismatch);
      EXPECT_EQ(read_file((dir / shard_checkpoint_name(b, e)).string()),
                "stale");
    }
  }
  // In range: a resume image lands, and start-fresh removes it again.
  TaskInit task;
  task.begin = 8;
  task.end = 16;
  task.resume = checkpoint_image(8, 16, trials);
  auto landed = accept_task(task, trials, dir.string() + "/");
  ASSERT_TRUE(landed.ok()) << landed.error().to_string();
  EXPECT_EQ(landed.value(), (dir / "shard_8_16.ckpt").string());
  auto bytes = read_checkpoint_bytes(landed.value());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), task.resume);
  task.resume.clear();
  ASSERT_TRUE(accept_task(task, trials, dir.string()).ok());
  EXPECT_FALSE(fs::exists(landed.value()));
  fs::remove_all(dir);
}

// ---- worker channel ------------------------------------------------------

TEST(WorkerChannel, CheckpointsSurviveArbitraryFragmentation) {
  // Checkpoint frames of different sizes, fed in 3-byte pieces and one byte
  // at a time (pipes split writes anywhere). Every image must be
  // reassembled, in order.
  const std::vector<std::vector<std::uint8_t>> images = {
      bytes_of("pretend checkpoint file image"), bytes_of(""),
      random_bytes(16, 5000), bytes_of("x")};
  std::vector<std::uint8_t> wire;
  for (const auto& image : images) {
    const auto f =
        encode_frame(FrameType::kCheckpoint, image.data(), image.size());
    wire.insert(wire.end(), f.begin(), f.end());
  }

  for (const std::size_t step : {std::size_t{3}, std::size_t{1}}) {
    SCOPED_TRACE("step " + std::to_string(step));
    WorkerChannel ch;
    std::vector<std::vector<std::uint8_t>> got;
    for (std::size_t i = 0; i < wire.size(); i += step) {
      const std::size_t n = std::min(step, wire.size() - i);
      auto fed = ch.feed(wire.data() + i, n, got);
      ASSERT_TRUE(fed.ok()) << fed.error().to_string();
    }
    EXPECT_EQ(got, images);
  }
}

TEST(WorkerChannel, FramedDialectYieldsCheckpointImages) {
  // Two frames in one read: both images come out of one feed.
  WorkerChannel ch;
  const auto first = bytes_of("pretend checkpoint file image");
  const auto second = bytes_of("the next batch's image");
  std::vector<std::uint8_t> wire;
  for (const auto* image : {&first, &second}) {
    const auto f =
        encode_frame(FrameType::kCheckpoint, image->data(), image->size());
    wire.insert(wire.end(), f.begin(), f.end());
  }

  std::vector<std::vector<std::uint8_t>> got;
  auto fed = ch.feed(wire.data(), wire.size(), got);
  ASSERT_TRUE(fed.ok()) << fed.error().to_string();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], first);
  EXPECT_EQ(got[1], second);
}

TEST(WorkerChannel, FramedDamageIsATransportErrorAndWrongDirectionToo) {
  {
    // A type-2 frame (a progress beat in an earlier protocol) is damage.
    WorkerChannel ch;
    std::uint8_t beat[8] = {42, 0, 0, 0, 0, 0, 0, 0};
    auto f = encode_frame(FrameType::kCheckpoint, beat, sizeof beat);
    f[4] = 2;
    std::vector<std::vector<std::uint8_t>> got;
    auto fed = ch.feed(f.data(), f.size(), got);
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.error().code, Errc::kTransport);
    EXPECT_TRUE(got.empty());
  }
  {
    // Workers never send kInit; one arriving means the stream is confused.
    WorkerChannel ch;
    std::uint8_t one = 0;
    const auto f = encode_frame(FrameType::kInit, &one, 1);
    std::vector<std::vector<std::uint8_t>> got;
    auto fed = ch.feed(f.data(), f.size(), got);
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.error().code, Errc::kTransport);
  }
}

// ---- host specs and fleet membership -------------------------------------

TEST(HostSpec, ParsesHostsWithSlotsAndOptionalWorkdir) {
  auto specs = parse_hosts("alpha:4,localhost:2:/scratch/n0,beta:1");
  ASSERT_TRUE(specs.ok()) << specs.error().to_string();
  ASSERT_EQ(specs.value().size(), 3u);
  EXPECT_EQ(specs.value()[0].host, "alpha");
  EXPECT_EQ(specs.value()[0].slots, 4);
  EXPECT_TRUE(specs.value()[0].workdir.empty());
  EXPECT_FALSE(specs.value()[0].is_local());
  EXPECT_EQ(specs.value()[1].host, "localhost");
  EXPECT_EQ(specs.value()[1].workdir, "/scratch/n0");
  EXPECT_TRUE(specs.value()[1].is_local());
  EXPECT_EQ(specs.value()[2].slots, 1);
}

TEST(HostSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "alpha", "alpha:0", "alpha:-2", "alpha:x",
                          ":4", "alpha:2:"}) {
    auto specs = parse_hosts(bad);
    EXPECT_FALSE(specs.ok()) << "accepted '" << bad << "'";
    if (!specs.ok()) {
      EXPECT_EQ(specs.error().code, Errc::kInvalidArgument) << bad;
    }
  }
}

TEST(HostSpec, HostsFileSkipsCommentsAndNamesBadLines) {
  const fs::path file = scratch_path("dnnfi_fleet_hosts_test");
  {
    std::ofstream out(file);
    out << "# fleet for the nightly\n"
        << "alpha:4\n"
        << "\n"
        << "  localhost:2  # on-box lanes\n";
  }
  auto specs = parse_hosts_file(file.string());
  ASSERT_TRUE(specs.ok()) << specs.error().to_string();
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[1].host, "localhost");

  {
    std::ofstream out(file);
    out << "alpha:4\nbogus line\n";
  }
  auto bad = parse_hosts_file(file.string());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kInvalidArgument);
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos)
      << bad.error().message;
  fs::remove(file);
}

TEST(HostSpec, ParsersSurviveEveryByteFlipAndTruncation) {
  // Mutation sweep: every single-byte change (all 255 XOR masks at every
  // offset) and every truncation of a valid --hosts string and hosts file
  // must parse or fail with a typed error — never throw, never crash, never
  // yield a host without a name or slots. beta's slot count sits near
  // INT_MAX so that flipped digits overflow the number parser too.
  const std::string csv = "alpha:4,localhost:2:/scratch/n0,beta:1000000000";
  const std::string file_text =
      "alpha:4\n  localhost:2:/scratch/n0  # on-box\nbeta:1000000000\n";
  const fs::path file = scratch_path("dnnfi_fleet_hosts_mutation");

  const auto check = [](const Expected<std::vector<HostSpec>>& got,
                        const std::string& input) {
    if (got.ok()) {
      for (const HostSpec& h : got.value()) {
        EXPECT_FALSE(h.host.empty()) << input;
        EXPECT_GE(h.slots, 1) << input;
      }
      return;
    }
    const Errc code = got.error().code;
    EXPECT_TRUE(code == Errc::kInvalidArgument || code == Errc::kIo)
        << errc_name(code) << " for '" << input << "'";
  };
  const auto mutants = [](const std::string& valid) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (int mask = 1; mask < 256; ++mask) {
        std::string m = valid;
        m[i] = static_cast<char>(m[i] ^ mask);
        out.push_back(std::move(m));
      }
    }
    for (std::size_t cut = 0; cut < valid.size(); ++cut)
      out.push_back(valid.substr(0, cut));
    return out;
  };

  for (const std::string& m : mutants(csv)) {
    SCOPED_TRACE(m);
    EXPECT_NO_THROW(check(parse_hosts(m), m));
  }
  for (const std::string& m : mutants(file_text)) {
    SCOPED_TRACE(m);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out << m;
    }
    EXPECT_NO_THROW(check(parse_hosts_file(file.string()), m));
  }
  fs::remove(file);
}

FleetConfig test_fleet_config() {
  FleetConfig cfg;
  cfg.fail_limit = 3;
  cfg.quarantine_base_s = 60.0;  // long enough to be "forever" in a test
  cfg.quarantine_cap_s = 300.0;
  cfg.scratch_root = "/tmp/dnnfi_fleet_unit";
  return cfg;
}

TEST(FleetMembership, AcquirePrefersAnotherHostForRetries) {
  auto specs = parse_hosts("alpha:2,beta:2");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());

  Fleet::Node* first = fleet.acquire("");
  ASSERT_NE(first, nullptr);
  // Retry-elsewhere: avoiding the first host must pick the other one even
  // though the first still has a free slot.
  Fleet::Node* other = fleet.acquire(first->id);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->id, first->id);
  // With beta saturated, an avoid=alpha acquire still yields alpha (a busy
  // fleet beats a dead shard) — preference, not a hard ban.
  Fleet::Node* beta_last = fleet.acquire(first->id);
  ASSERT_NE(beta_last, nullptr);
  EXPECT_NE(beta_last->id, first->id);
  Fleet::Node* forced = fleet.acquire(first->id);
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->id, first->id);
  EXPECT_EQ(fleet.acquire(""), nullptr) << "all four slots are out";
}

TEST(FleetMembership, RepeatedFailuresQuarantineTheHostThenExpire) {
  auto specs = parse_hosts("alpha:1,beta:1");
  ASSERT_TRUE(specs.ok());
  FleetConfig cfg = test_fleet_config();
  cfg.quarantine_base_s = 0.05;  // expire within the test
  Fleet fleet(specs.value(), cfg);

  Fleet::Node* alpha = fleet.nodes()[0].get();
  ReleaseOutcome out;
  for (int i = 0; i < cfg.fail_limit; ++i) {
    Fleet::Node* n = fleet.acquire("beta#1");
    ASSERT_EQ(n, alpha);
    out = fleet.release(*n, /*success=*/false);
  }
  EXPECT_TRUE(out.quarantined);
  EXPECT_GT(out.quarantine_s, 0.0);
  // Quarantined: every acquire lands on beta, but alpha still counts
  // toward capacity (quarantine is temporary, not membership).
  Fleet::Node* n = fleet.acquire("");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->spec.host, "beta");
  EXPECT_EQ(fleet.total_slots(), 2);
  fleet.release(*n, /*success=*/true);
  // After expiry the host rejoins on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  bool alpha_back = false;
  for (int i = 0; i < 2; ++i) {
    Fleet::Node* m = fleet.acquire("");
    ASSERT_NE(m, nullptr);
    alpha_back |= (m->spec.host == "alpha");
  }
  EXPECT_TRUE(alpha_back);
}

TEST(FleetMembership, ResourceFailuresHalveSlotsButNeverBelowOne) {
  auto specs = parse_hosts("localhost:4");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());
  Fleet::Node& node = *fleet.nodes()[0];
  const auto resource_failure = [&] {
    Fleet::Node* n = fleet.acquire("");
    EXPECT_EQ(n, &node);
    return fleet.release(node, /*success=*/false, /*resource_failure=*/true);
  };

  // One resource failure is bad luck; a success in between resets the
  // streak, and plain failures neither count nor reset it.
  EXPECT_FALSE(resource_failure().degraded);
  fleet.acquire("");
  fleet.release(node, /*success=*/true);
  EXPECT_FALSE(resource_failure().degraded);
  fleet.acquire("");
  fleet.release(node, /*success=*/false);
  EXPECT_EQ(node.spec.slots, 4);

  // Two in a row: 4 -> 2, then 2 -> 1, then never 0.
  EXPECT_TRUE(resource_failure().degraded);
  EXPECT_EQ(node.spec.slots, 2);
  EXPECT_FALSE(resource_failure().degraded);
  EXPECT_TRUE(resource_failure().degraded);
  EXPECT_EQ(node.spec.slots, 1);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(resource_failure().degraded);
  EXPECT_EQ(node.spec.slots, 1);
  EXPECT_EQ(fleet.total_slots(), 1);
  // The degraded node runs one worker at a time.
  ASSERT_EQ(fleet.acquire(""), &node);
  EXPECT_EQ(fleet.acquire(""), nullptr);
}

TEST(FleetMembership, OnlyMemberIsNeverQuarantined) {
  // With nowhere else to send the work, benching the only host would only
  // stall the campaign: failures past the limit keep it usable.
  auto specs = parse_hosts("localhost:2");
  ASSERT_TRUE(specs.ok());
  const FleetConfig cfg = test_fleet_config();
  Fleet fleet(specs.value(), cfg);
  for (int i = 0; i < 3 * cfg.fail_limit; ++i) {
    Fleet::Node* n = fleet.acquire("");
    ASSERT_NE(n, nullptr) << "after " << i << " failures";
    EXPECT_FALSE(fleet.release(*n, /*success=*/false).quarantined);
  }
  EXPECT_FALSE(fleet.earliest_release(Fleet::Clock::now()).has_value());

  // A sibling that is draining is no alternative either.
  auto pair = parse_hosts("alpha:1,beta:1");
  ASSERT_TRUE(pair.ok());
  Fleet two(pair.value(), cfg);
  Fleet::Node* beta = two.acquire("alpha#0");
  ASSERT_NE(beta, nullptr);
  auto alpha_only = parse_hosts("alpha:1");
  ASSERT_TRUE(alpha_only.ok());
  two.reload(alpha_only.value());
  ASSERT_TRUE(beta->draining);
  Fleet::Node* alpha = two.nodes()[0].get();
  for (int i = 0; i < cfg.fail_limit; ++i) {
    ASSERT_EQ(two.acquire(""), alpha);
    EXPECT_FALSE(two.release(*alpha, /*success=*/false).quarantined);
  }
}

TEST(FleetMembership, ReloadJoinsNewHostsAndDrainsVanishedOnes) {
  auto specs = parse_hosts("alpha:2,beta:2");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());
  Fleet::Node* busy_beta = fleet.acquire("alpha#0");
  ASSERT_NE(busy_beta, nullptr);
  ASSERT_EQ(busy_beta->spec.host, "beta");

  auto next = parse_hosts("alpha:4,gamma:1");
  ASSERT_TRUE(next.ok());
  const auto [joined, drained] = fleet.reload(next.value());
  EXPECT_EQ(joined, 1);   // gamma
  EXPECT_EQ(drained, 1);  // beta
  EXPECT_EQ(fleet.total_slots(), 5);  // alpha grew to 4, gamma 1, beta gone
  // The busy drained node survives until its worker is released; it never
  // takes new work.
  EXPECT_TRUE(busy_beta->draining);
  for (int i = 0; i < 5; ++i) {
    Fleet::Node* n = fleet.acquire("");
    ASSERT_NE(n, nullptr);
    EXPECT_NE(n->spec.host, "beta");
  }
}

TEST(FleetMembership, DrainedNodeOutlivesItsIdleWorkers) {
  // A persistent worker keeps pointing at its node after its task returned
  // the slot. A reload that drains that node must neither free it nor
  // count its slots, and the host rejoins with its health when it returns.
  auto specs = parse_hosts("alpha:1,beta:1");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());
  Fleet::Node* beta = fleet.acquire("alpha#0");
  ASSERT_NE(beta, nullptr);
  ASSERT_EQ(beta->spec.host, "beta");
  fleet.release(*beta, /*success=*/false);  // the worker is now idle
  auto alpha_only = parse_hosts("alpha:1");
  ASSERT_TRUE(alpha_only.ok());
  EXPECT_EQ(fleet.reload(alpha_only.value()), std::make_pair(0, 1));
  ASSERT_EQ(fleet.nodes().size(), 2u);
  EXPECT_EQ(fleet.nodes()[1].get(), beta);
  EXPECT_TRUE(beta->draining);
  EXPECT_EQ(fleet.total_slots(), 1);
  EXPECT_EQ(fleet.reload(specs.value()), std::make_pair(1, 0));
  EXPECT_FALSE(beta->draining);
  EXPECT_EQ(beta->fail_streak, 1);
}

// ---- end-to-end fleet campaigns ------------------------------------------

const char* kCampaignFlags =
    "--network convnet --trials 64 --seed 7 --inputs 4 --batch 16";

/// Runs `DNNFI_CAMPAIGN_BIN <args>` through the shell with optional extra
/// environment assignments; returns the exit code (-1 on abnormal death).
int run_tool(const std::string& args, const std::string& env = "",
             const std::string& log = "/dev/null") {
  std::ostringstream cmd;
  cmd << "env DNNFI_MODEL_DIR='" << DNNFI_REPO_MODELS << "' " << env << " '"
      << DNNFI_CAMPAIGN_BIN << "' " << args << " >" << log << " 2>&1";
  const int st = std::system(cmd.str().c_str());
  if (st == -1 || !WIFEXITED(st)) return -1;
  return WEXITSTATUS(st);
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_path("dnnfi_test_fleet_" +
                        std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  /// Monolithic reference stats for kCampaignFlags.
  std::string monolithic() {
    const std::string out = path("mono.stats");
    EXPECT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                           " --no-progress --out " + out,
                       "", path("mono.log")),
              0)
        << read_file(path("mono.log"));
    return read_file(out);
  }

  std::string supervise_flags(const std::string& extra = "",
                              int shard_size = 8) const {
    return std::string("supervise ") + kCampaignFlags + " --shard-size " +
           std::to_string(shard_size) + " --backoff 0.05 --ckpt-dir " +
           (dir_ / "ckpt").string() + " --out " + (dir_ / "sup.stats").string() +
           " " + extra;
  }

  fs::path dir_;
};

TEST_F(FleetTest, WorkersFlagRunsAsOneLocalhostNode) {
  // No --hosts means the one-node fleet localhost:<--workers>: the same
  // framed transport and checkpoint shipping as any fleet, node0 scratch
  // under the checkpoint directory, byte-identical results, and one stderr
  // log per worker process under the checkpoint directory.
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  ASSERT_EQ(run_tool(supervise_flags("--workers 2"), "", path("sup.log")), 0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  std::vector<std::string> logs;
  for (const auto& e : fs::directory_iterator(dir_ / "ckpt/logs"))
    logs.push_back(e.path().filename().string());
  std::sort(logs.begin(), logs.end());
  EXPECT_EQ(logs, (std::vector<std::string>{"worker_1.log", "worker_2.log"}));
  EXPECT_TRUE(fs::is_directory(dir_ / "ckpt/node0"))
      << "node0 scratch directory missing";
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find("checkpoint(s) shipped"), std::string::npos) << log;
  EXPECT_EQ(log.find("fleet: 0 checkpoint(s) shipped"), std::string::npos)
      << log;
}

TEST_F(FleetTest, TwoNodeFleetMatchesMonolithicByteForByte) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // Two localhost nodes: separate scratch dirs, framed channels, every
  // batch shipped home. The merged result must not care. 16 shards, and
  // one worker per node runs all of that node's shards.
  ASSERT_EQ(run_tool(supervise_flags("--hosts localhost:1,localhost:1", 4),
                     "", path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("supervise: 2 worker(s),"),
            std::string::npos)
      << read_file(path("sup.log"));
  // Checkpoints were shipped over frames, and the node scratch dirs exist.
  EXPECT_NE(read_file(path("sup.log")).find("checkpoint(s) shipped"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(dir_ / "ckpt/node0") ||
              fs::exists(dir_ / "ckpt/node1"))
      << "no node scratch directory was created";
}

TEST_F(FleetTest, NodeKilledRepeatedlyMidCampaignRetriesElsewhere) {
  // A longer campaign than the other fixtures (4096 trials, batch 8) so
  // the killer has a real window: the 64-trial default finishes before a
  // single kill can land, and persistent workers run 1024 trials in about
  // the time of three killer rounds.
  const char* flags = "--network convnet --trials 4096 --seed 7 --inputs 4 "
                      "--batch 8";
  const std::string mono_out = path("mono.stats");
  ASSERT_EQ(run_tool(std::string("run ") + flags + " --no-progress --out " +
                         mono_out,
                     "", path("mono.log")),
            0)
      << read_file(path("mono.log"));
  const std::string mono = read_file(mono_out);
  ASSERT_FALSE(mono.empty());

  // Repeatedly SIGKILL every worker of node0 — the whole "machine" dies,
  // over and over — while node1 stays healthy. Shards stranded on node0
  // must be rescheduled on node1, resuming from shipped checkpoints, and
  // the merge must still be byte-identical.
  std::atomic<bool> done{false};
  int rc = -1;
  std::thread sup([&] {
    rc = run_tool(std::string("supervise ") + flags +
                      " --shard-size 256 --backoff 0.05 --ckpt-dir " +
                      (dir_ / "ckpt").string() + " --out " +
                      (dir_ / "sup.stats").string() +
                      " --hosts localhost:1,localhost:1"
                      " --max-attempts 100 --host-quarantine 0.5",
                  "", path("sup.log"));
    done.store(true);
  });
  // "[0]" keeps the pattern from matching the sh -c wrapper's own command
  // line (pkill would SIGKILL its parent shell and report failure).
  const std::string killer =
      "pkill -9 -f '" + (dir_ / "ckpt/node").string() + "[0]/' 2>/dev/null";
  int kills = 0;
  for (int i = 0; i < 6000 && !done.load(); ++i) {
    if (std::system(killer.c_str()) == 0) ++kills;
    usleep(20 * 1000);
  }
  sup.join();
  ASSERT_EQ(rc, 0) << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_GT(kills, 0) << "the killer never caught a node0 worker";
}

TEST_F(FleetTest, SpawnDeadHostIsQuarantinedAndCampaignCompletes) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // "phantom" is a non-local host, so its workers go through the ssh
  // command — overridden to /bin/false, which exits 1 instantly. Every
  // phantom attempt fails, the host's streak trips the quarantine, and
  // the campaign completes on the healthy localhost node.
  ASSERT_EQ(
      run_tool(supervise_flags("--hosts phantom:1,localhost:1 "
                               "--max-attempts 100 --host-quarantine 0.2"),
               "DNNFI_FLEET_SSH=/bin/false", path("sup.log")),
      0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find("quarantin"), std::string::npos) << log;
}

TEST_F(FleetTest, FakeSshTransportCarriesTheWholeProtocol) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // A stand-in ssh client: drops the host argument and runs the command
  // locally — the full quoted-command + framed-stdio path a real ssh fleet
  // exercises, minus the network.
  const std::string fake = path("fake_ssh.sh");
  {
    std::ofstream out(fake);
    out << "#!/bin/sh\nshift\nexec sh -c \"$1\"\n";
  }
  ASSERT_EQ(chmod(fake.c_str(), 0755), 0);
  ASSERT_EQ(run_tool(supervise_flags("--hosts worker-box:2"),
                     "DNNFI_FLEET_SSH='" + fake + "'", path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
}

TEST_F(FleetTest, SighupHostsFileReloadRescuesAStalledCampaign) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());

  // Membership starts as a single dead host (spawns via /bin/false), so
  // the campaign can only spin. Mid-run the hosts file is rewritten to a
  // healthy localhost pair and SIGHUP delivered: the fleet must pick up
  // the new members, drain the dead one, and finish byte-identical.
  const std::string hosts_file = path("hosts.txt");
  {
    std::ofstream out(hosts_file);
    out << "phantom:1\n";
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    setenv("DNNFI_FLEET_SSH", "/bin/false", 1);
    const int log = open(path("sup.log").c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    const std::string ckpt = path("ckpt");
    const std::string out = path("sup.stats");
    execl(DNNFI_CAMPAIGN_BIN, DNNFI_CAMPAIGN_BIN, "supervise", "--network",
          "convnet", "--trials", "64", "--seed", "7", "--inputs", "4",
          "--batch", "16", "--shard-size", "8", "--backoff", "0.05",
          "--max-attempts", "1000", "--host-quarantine", "0.2", "--ckpt-dir",
          ckpt.c_str(), "--out", out.c_str(), "--hosts-file",
          hosts_file.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Let it start and fail on the phantom for a while, then fix the fleet.
  usleep(1500 * 1000);
  {
    std::ofstream out(hosts_file);
    out << "localhost:2\n";
  }
  ASSERT_EQ(kill(pid, SIGHUP), 0);

  int st = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 1200; ++i) {
    reaped = waitpid(pid, &st, WNOHANG);
    if (reaped == pid) break;
    usleep(100 * 1000);
  }
  if (reaped != pid) {
    kill(pid, SIGKILL);
    waitpid(pid, &st, 0);
    FAIL() << "supervise did not finish after the reload: "
           << read_file(path("sup.log"));
  }
  ASSERT_TRUE(WIFEXITED(st));
  ASSERT_EQ(WEXITSTATUS(st), 0) << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("hosts-file reloaded"),
            std::string::npos);
}

}  // namespace
}  // namespace dnnfi::fault
