// The sharding contract, locked down: per-trial results are a pure function
// of (options, global trial index), so the same campaign produces
// byte-identical records and aggregates at any thread count, under any
// shard partition, and across checkpoint/kill/resume boundaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign_fixture.h"
#include "dnnfi/fault/stats_io.h"

namespace dnnfi::fault {
namespace {

// ---------------------------------------------------------------------------
// Thread-count invariance: 1, 2, and 8 workers produce byte-identical
// record streams and aggregates.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, ThreadCountInvariance) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = base_options();

  ThreadPool serial(0);
  opt.pool = &serial;
  const ShardCapture ref = capture(c, opt, ShardSpec{});
  ASSERT_TRUE(ref.result.complete);
  ASSERT_EQ(ref.result.acc.trials(), opt.trials);
  ASSERT_FALSE(ref.records.empty());

  for (const std::size_t workers : {2UL, 8UL}) {
    ThreadPool pool(workers);
    opt.pool = &pool;
    const ShardCapture got = capture(c, opt, ShardSpec{});
    EXPECT_EQ(got.records, ref.records) << workers << " workers";
    EXPECT_EQ(got.result.acc.bytes(), ref.result.acc.bytes())
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Shard-union invariance: {[0,k) u [k,N)} == [0,N), for two split points
// and two dtypes, both as record streams and as merged aggregates (in both
// merge orders — the merge is exactly commutative).
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, ShardUnionEqualsMonolithic) {
  for (const DType dt : {DType::kFloat16, DType::kFx32r10}) {
    const Campaign c = tiny_campaign(dt);
    const CampaignOptions opt = base_options();
    const ShardCapture whole = capture(c, opt, ShardSpec{});
    ASSERT_TRUE(whole.result.complete);

    for (const std::uint64_t k : {17ULL, 50ULL}) {
      ShardSpec lo, hi;
      lo.begin = 0;
      lo.end = k;
      hi.begin = k;
      hi.end = opt.trials;
      const ShardCapture a = capture(c, opt, lo);
      const ShardCapture b = capture(c, opt, hi);
      ASSERT_TRUE(a.result.complete);
      ASSERT_TRUE(b.result.complete);
      EXPECT_EQ(a.result.acc.trials(), k);
      EXPECT_EQ(b.result.acc.trials(), opt.trials - k);

      // Record streams concatenate to the monolithic stream.
      std::vector<std::uint8_t> joined = a.records;
      joined.insert(joined.end(), b.records.begin(), b.records.end());
      EXPECT_EQ(joined, whole.records) << "dtype " << static_cast<int>(dt)
                                       << " split " << k;

      // Aggregates merge to the monolithic aggregate, in either order.
      OutcomeAccumulator ab = a.result.acc;
      ab.merge(b.result.acc);
      EXPECT_EQ(ab.bytes(), whole.result.acc.bytes());
      OutcomeAccumulator ba = b.result.acc;
      ba.merge(a.result.acc);
      EXPECT_EQ(ba.bytes(), whole.result.acc.bytes());
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint round trip: a run killed mid-shard and resumed from its
// checkpoint finishes with aggregates bit-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, CheckpointResumeBitIdentical) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();

  const ShardResult uninterrupted = c.run_shard(opt, ShardSpec{});
  ASSERT_TRUE(uninterrupted.complete);

  TempFile ck("resume");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  shard.batch = 16;
  shard.stop_after = 40;
  const ShardResult stopped = c.run_shard(opt, shard);
  EXPECT_FALSE(stopped.complete);
  EXPECT_GE(stopped.next_trial, 40u);
  EXPECT_LT(stopped.next_trial, opt.trials);
  ASSERT_TRUE(std::filesystem::exists(ck.path));

  // The checkpoint on disk holds exactly the stopped run's state.
  const ShardCheckpoint on_disk = load_shard_checkpoint(ck.path);
  EXPECT_EQ(on_disk.next_trial, stopped.next_trial);
  EXPECT_FALSE(on_disk.complete);
  EXPECT_EQ(on_disk.acc.bytes(), stopped.acc.bytes());

  shard.stop_after = 0;
  const ShardResult resumed = c.run_shard(opt, shard);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.acc.bytes(), uninterrupted.acc.bytes());

  // Running once more is a no-op: the checkpoint says complete.
  const ShardResult again = c.run_shard(opt, shard);
  EXPECT_TRUE(again.complete);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.acc.bytes(), uninterrupted.acc.bytes());
}

// ---------------------------------------------------------------------------
// Corruption and mismatch: every structural defect loads as a clean
// CheckpointError, never UB or silent state.
// ---------------------------------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CampaignDeterminism, CorruptCheckpointsFailCleanly) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();
  TempFile ck("corrupt");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  ASSERT_TRUE(c.run_shard(opt, shard).complete);
  const std::vector<char> good = slurp(ck.path);
  ASSERT_GT(good.size(), 40u);

  // Flipped payload byte -> CRC mismatch.
  std::vector<char> flipped = good;
  flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x40);
  spit(ck.path, flipped);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Truncation -> size/CRC failure, not a crash.
  std::vector<char> truncated(good.begin(), good.begin() + 30);
  spit(ck.path, truncated);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Wrong magic -> not a checkpoint.
  std::vector<char> magic = good;
  magic[0] = 'X';
  spit(ck.path, magic);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Wrong version -> explicit version error.
  std::vector<char> version = good;
  version[8] = 9;
  spit(ck.path, version);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Valid file, different campaign options -> fingerprint mismatch.
  spit(ck.path, good);
  CampaignOptions other = base_options();
  other.seed = opt.seed + 1;
  EXPECT_THROW(c.run_shard(other, shard), CheckpointError);
  // And a different shard range under the same options.
  ShardSpec narrower = shard;
  narrower.begin = 8;
  EXPECT_THROW(c.run_shard(opt, narrower), CheckpointError);
}

// Checkpoint image header (checkpoint.cpp): magic, u32 version, u32 CRC,
// u64 payload size, then the payload.
constexpr std::size_t kCkHeader = sizeof(kCheckpointMagic) + 4 + 4 + 8;

// Re-seals an edited image's payload size and CRC, so the edit reaches the
// structural parser instead of the CRC check.
void reseal(std::vector<std::uint8_t>& img) {
  const std::uint64_t size = img.size() - kCkHeader;
  const std::uint32_t crc = crc32(img.data() + kCkHeader, size);
  for (std::size_t i = 0; i < 4; ++i)
    img[sizeof(kCheckpointMagic) + 4 + i] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  for (std::size_t i = 0; i < 8; ++i)
    img[sizeof(kCheckpointMagic) + 8 + i] =
        static_cast<std::uint8_t>(size >> (8 * i));
}

TEST(CampaignDeterminism, HugeAbortedCountIsCorruptDataNotAThrow) {
  ShardCheckpoint ck;
  ck.trials_total = 1ULL << 62;
  ck.shard_end = 4;
  ck.next_trial = 4;
  ck.complete = true;
  TempFile f("huge_aborted");
  ASSERT_TRUE(try_save_shard_checkpoint(f.path, ck).ok());
  auto bytes = read_checkpoint_bytes(f.path);
  ASSERT_TRUE(bytes.ok());
  std::vector<std::uint8_t> img = std::move(bytes).value();
  // Payload: fingerprint, four strings (u64 length + bytes), four u64s, the
  // complete flag and masked_exits precede the aborted-trial count.
  std::size_t off = kCkHeader + 8;
  for (const std::string* s : {&ck.network, &ck.accel, &ck.fault_op,
                               &ck.sampler})
    off += 8 + s->size();
  off += 4 * 8 + 1 + 8;
  ASSERT_LE(off + 8, img.size());
  const std::uint64_t aborted = ck.trials_total;  // passes `<= trials_total`
  for (std::size_t i = 0; i < 8; ++i)
    img[off + i] = static_cast<std::uint8_t>(aborted >> (8 * i));
  reseal(img);
  const auto parsed = parse_checkpoint_bytes(img.data(), img.size(), "huge");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, Errc::kCorruptData);
}

// Structure-aware mutation sweep (ROADMAP 5b): XOR every payload byte of a
// uniform and of a stratified checkpoint, re-seal, and parse. Each image
// parses or fails with a typed error; nothing throws.
TEST(CampaignDeterminism, ResealedPayloadMutationsParseOrFailTyped) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  TempFile ck("mutate");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  ASSERT_TRUE(c.run_shard(base_options(), shard).complete);
  auto uniform = read_checkpoint_bytes(ck.path);
  ASSERT_TRUE(uniform.ok());

  ShardCheckpoint s = load_shard_checkpoint(ck.path);
  StratifiedCheckpoint st;
  st.rounds = 2;
  st.cursor = 1;
  st.plan = {1, 2};
  st.strata = {{"block0/mac", 0.25, s.acc}, {"block1/mac", 0.75, s.acc}};
  s.sampler = "stratified";
  s.stratified = st;
  ASSERT_TRUE(try_save_shard_checkpoint(ck.path, s).ok());
  auto stratified = read_checkpoint_bytes(ck.path);
  ASSERT_TRUE(stratified.ok());

  for (const auto* good : {&uniform.value(), &stratified.value()}) {
    std::size_t rejected = 0;
    for (std::size_t i = kCkHeader; i < good->size(); ++i) {
      for (const unsigned mask : {0x01U, 0x80U, 0xFFU}) {
        std::vector<std::uint8_t> img = *good;
        img[i] = static_cast<std::uint8_t>(img[i] ^ mask);
        reseal(img);
        try {
          const auto parsed =
              parse_checkpoint_bytes(img.data(), img.size(), "mutant");
          if (!parsed.ok()) ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "byte " << i << " ^ " << mask << " threw "
                        << e.what();
        }
      }
    }
    EXPECT_GT(rejected, 0u);
  }
}

// ---------------------------------------------------------------------------
// The streaming aggregates agree with the buffered path on every statistic
// they both compute.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, AccumulatorMatchesBufferedRun) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();
  const CampaignResult buffered = c.run(opt);
  const ShardResult streamed = c.run_shard(opt, ShardSpec{});

  ASSERT_EQ(buffered.trials.size(), streamed.acc.trials());
  EXPECT_EQ(buffered.sdc1().hits, streamed.acc.sdc1().hits);
  EXPECT_EQ(buffered.sdc5().hits, streamed.acc.sdc5().hits);
  EXPECT_EQ(buffered.sdc10().hits, streamed.acc.sdc10().hits);
  EXPECT_EQ(buffered.sdc20().hits, streamed.acc.sdc20().hits);

  std::size_t detected = 0, reached = 0;
  for (const auto& t : buffered.trials) {
    detected += t.detected ? 1U : 0U;
    reached += t.output_corruption > 0 ? 1U : 0U;
  }
  EXPECT_EQ(streamed.acc.detections(), detected);
  EXPECT_EQ(streamed.acc.reached_output().hits, reached);
}

// ---------------------------------------------------------------------------
// Golden state on the pool: the constructor builds every input's activation
// cache on the global pool, and the caches, predictions and block ranges
// equal a serial build byte for byte. A campaign built inside a pool task
// builds inline on that task's worker.
// ---------------------------------------------------------------------------

// The global pool reads DNNFI_THREADS once, on first use. Unless the
// environment pins it (CI also runs this suite with DNNFI_THREADS=1, the
// serial pool), give it 4 workers so the golden builds here fan out.
const bool kGlobalPoolDefaulted = ::setenv("DNNFI_THREADS", "4", 0) == 0;

template <typename T>
bool same_bytes(tensor::ConstTensorView<T> a, tensor::ConstTensorView<T> b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(T)) ==
             0;
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every cached activation, prediction and block range of `c` against
/// caches built one input after another here.
template <typename T>
void expect_serial_golden(const Campaign& c,
                          const std::vector<dnn::Example>& inputs) {
  const dnn::Network<T> net = dnn::instantiate<T>(tiny_spec(), tiny_blob());
  const std::vector<std::size_t> ends = block_end_layers(tiny_spec());
  std::vector<BlockRange> ranges(
      ends.size(), BlockRange{std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::lowest()});
  ASSERT_EQ(c.num_inputs(), inputs.size());
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    SCOPED_TRACE("input " + std::to_string(in));
    const dnn::ActivationCache<T> ref(net.plan(),
                                      tensor::convert<T>(inputs[in].image));
    const dnn::ActivationCache<T>& got = c.golden_cache<T>(in);
    ASSERT_EQ(got.num_layers(), ref.num_layers());
    EXPECT_TRUE(same_bytes<T>(got.input(), ref.input()));
    for (std::size_t i = 0; i < ref.num_layers(); ++i)
      EXPECT_TRUE(same_bytes<T>(got.act(i), ref.act(i))) << "layer " << i;

    const dnn::Prediction want = net.interpret(ref.output());
    const dnn::Prediction& pred = c.golden_prediction(in);
    ASSERT_EQ(pred.scores.size(), want.scores.size());
    for (std::size_t k = 0; k < want.scores.size(); ++k)
      EXPECT_TRUE(same_bytes(pred.scores[k], want.scores[k])) << "class " << k;
    EXPECT_EQ(pred.has_confidence, want.has_confidence);

    for (std::size_t b = 0; b < ends.size(); ++b) {
      const auto [lo, hi] = tensor::value_range<T>(ref.act(ends[b]));
      ranges[b].lo = std::min(ranges[b].lo, lo);
      ranges[b].hi = std::max(ranges[b].hi, hi);
    }
  }
  const std::vector<BlockRange>& got = c.golden_block_ranges();
  ASSERT_EQ(got.size(), ranges.size());
  for (std::size_t b = 0; b < ranges.size(); ++b) {
    EXPECT_TRUE(same_bytes(got[b].lo, ranges[b].lo)) << "block " << b;
    EXPECT_TRUE(same_bytes(got[b].hi, ranges[b].hi)) << "block " << b;
  }
}

/// The stats file a short run of `c` writes.
std::string stats_text(const Campaign& c, const CampaignOptions& opt) {
  const ShardResult r = c.run_shard(opt, ShardSpec{});
  EXPECT_TRUE(r.complete);
  std::ostringstream os;
  write_stats(os, c.fingerprint(opt), r.acc, r.masked_exits);
  return os.str();
}

TEST(CampaignGolden, PooledBuildEqualsSerialCaches) {
  ASSERT_TRUE(kGlobalPoolDefaulted);
  // More inputs than workers, so some pool tasks build several caches.
  const std::vector<dnn::Example> inputs = tiny_inputs(9);
  for (const DType dt : {DType::kFloat16, DType::kFx32r10, DType::kFloat,
                         DType::kFx16r10}) {
    SCOPED_TRACE(std::string(numeric::dtype_name(dt)));
    const Campaign c(tiny_spec(), tiny_blob(), dt, inputs);
    numeric::dispatch_dtype(
        dt, [&]<typename T>() { expect_serial_golden<T>(c, inputs); });
  }
}

TEST(CampaignGolden, CampaignsBuiltInPoolTasksMatchAndRunTheSameStats) {
  // Built from pool tasks, the constructor's fan-out runs inline on each
  // task's worker: a serial build, and no deadlock however many tasks
  // hold workers.
  const std::vector<dnn::Example> inputs = tiny_inputs(9);
  const Campaign pooled(tiny_spec(), tiny_blob(), DType::kFloat16, inputs);
  std::vector<std::optional<Campaign>> nested(8);  // two per default worker
  parallel_for(nested.size(), [&](std::size_t i) {
    nested[i].emplace(tiny_spec(), tiny_blob(), DType::kFloat16, inputs);
  });
  expect_serial_golden<numeric::Half>(pooled, inputs);

  const CampaignOptions opt = base_options();
  const ShardCapture want = capture(pooled, opt, ShardSpec{});
  const std::string want_stats = stats_text(pooled, opt);
  ASSERT_FALSE(want_stats.empty());
  for (const auto& c : nested) {
    ASSERT_TRUE(c.has_value());
    expect_serial_golden<numeric::Half>(*c, inputs);
    const ShardCapture got = capture(*c, opt, ShardSpec{});
    EXPECT_EQ(got.records, want.records);
    EXPECT_EQ(got.result.acc.bytes(), want.result.acc.bytes());
    EXPECT_EQ(stats_text(*c, opt), want_stats);
  }
}

// ---------------------------------------------------------------------------
// Pipelined uniform batches: the pool runs batch k+1 while the driving
// thread folds and saves batch k. Results, checkpoints and the stop/cancel
// cadence do not depend on it.
// ---------------------------------------------------------------------------

TEST(CampaignPipeline, UniformIsByteIdenticalAcrossPoolsAndBatches) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = base_options();
  ThreadPool serial(0);
  opt.pool = &serial;
  TempFile ref_ck("pipeline_ref");
  ShardSpec ref_shard;
  ref_shard.checkpoint = ref_ck.path;
  const ShardCapture ref = capture(c, opt, ref_shard);
  ASSERT_TRUE(ref.result.complete);
  const std::vector<char> ref_bytes = slurp(ref_ck.path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const std::size_t workers : {0UL, 1UL, 4UL}) {
    ThreadPool pool(workers);
    opt.pool = &pool;
    for (const std::size_t batch : {1UL, 7UL, 512UL}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, batch " +
                   std::to_string(batch));
      TempFile ck("pipeline");
      ShardSpec shard;
      shard.checkpoint = ck.path;
      shard.batch = batch;
      const ShardCapture got = capture(c, opt, shard);
      EXPECT_TRUE(got.result.complete);
      EXPECT_EQ(got.records, ref.records);
      EXPECT_EQ(got.result.acc.bytes(), ref.result.acc.bytes());
      EXPECT_EQ(got.result.masked_exits, ref.result.masked_exits);
      EXPECT_EQ(slurp(ck.path), ref_bytes);
    }
  }
}

TEST(CampaignPipeline, CancelFromProgressSavesTheInFlightBatchAndResumes) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  for (const std::size_t workers : {0UL, 4UL}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    CampaignOptions opt = base_options();
    opt.pool = &pool;
    TempFile whole_ck("pipeline_whole");
    ShardSpec whole_shard;
    whole_shard.checkpoint = whole_ck.path;
    whole_shard.batch = 8;
    const ShardResult whole = c.run_shard(opt, whole_shard);
    ASSERT_TRUE(whole.complete);

    // Cancel while reporting batch 1 (16 trials folded): batch 2 is
    // already running, so it folds, saves and reports too.
    std::atomic<bool> cancel{false};
    std::vector<std::uint64_t> reported;
    opt.cancel = &cancel;
    opt.progress = [&](const CampaignProgress& p) {
      reported.push_back(p.done);
      if (p.done == 16) cancel = true;
    };
    TempFile ck("pipeline_cancel");
    ShardSpec shard;
    shard.checkpoint = ck.path;
    shard.batch = 8;
    const ShardResult stopped = c.run_shard(opt, shard);
    EXPECT_FALSE(stopped.complete);
    EXPECT_EQ(stopped.next_trial, 24u);
    EXPECT_EQ(reported, (std::vector<std::uint64_t>{8, 16, 24}));
    const ShardCheckpoint on_disk = load_shard_checkpoint(ck.path);
    EXPECT_EQ(on_disk.next_trial, 24u);
    EXPECT_EQ(on_disk.acc.bytes(), stopped.acc.bytes());

    cancel = false;
    const ShardResult resumed = c.run_shard(opt, shard);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.acc.bytes(), whole.acc.bytes());
    EXPECT_EQ(resumed.masked_exits, whole.masked_exits);
    EXPECT_EQ(slurp(ck.path), slurp(whole_ck.path));
  }
}

TEST(CampaignPipeline, StopAfterNeverRunsATrialPastItsBatch) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  ThreadPool pool(4);
  CampaignOptions opt = base_options();
  opt.pool = &pool;
  for (const std::uint64_t stop : {1ULL, 16ULL, 20ULL, 95ULL}) {
    SCOPED_TRACE("stop_after " + std::to_string(stop));
    std::vector<std::uint64_t> seen;
    const TrialSink sink = [&](std::uint64_t trial, const TrialRecord&) {
      seen.push_back(trial);
    };
    ShardSpec shard;
    shard.batch = 8;
    shard.stop_after = stop;
    const ShardResult r = c.run_shard(opt, shard, &sink);
    // Every executed trial is folded and sunk: the batch that reaches
    // stop_after is the last one run.
    const std::uint64_t expect =
        std::min<std::uint64_t>(opt.trials, (stop + 7) / 8 * 8);
    EXPECT_EQ(r.next_trial, expect);
    EXPECT_EQ(r.acc.trials(), expect);
    ASSERT_EQ(seen.size(), expect);
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(CampaignPipeline, ThrowingProgressJoinsTheInFlightBatch) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  ThreadPool pool(4);
  CampaignOptions opt = base_options();
  opt.pool = &pool;
  // The detector runs on the pool for every trial that is not masked at
  // its first replayed block; slowing it keeps the look-ahead batch busy
  // while the progress callback throws.
  std::atomic<std::uint64_t> detector_calls{0};
  opt.detector = [&](int, double v) {
    if (detector_calls.fetch_add(1, std::memory_order_relaxed) % 64 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return v > 40.0 || v < -40.0;
  };
  opt.progress = [](const CampaignProgress&) {
    throw std::runtime_error("progress failed");
  };
  ShardSpec shard;
  shard.batch = 16;
  EXPECT_THROW(c.run_shard(opt, shard), std::runtime_error);
  // The exception left only after the in-flight batch was joined: no
  // trial runs any more.
  const std::uint64_t after = detector_calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(detector_calls.load(), after);

  // The pool is idle and reusable.
  opt.progress = nullptr;
  const ShardResult again = c.run_shard(opt, shard);
  EXPECT_TRUE(again.complete);
}

// ---------------------------------------------------------------------------
// Shard merge: the one rule `dnnfi_campaign merge` and the supervisor share
// for folding shard checkpoints, on checkpoints built in memory.
// ---------------------------------------------------------------------------

/// A complete shard [begin, end) of a 96-trial campaign.
ShardCheckpoint merge_operand(std::uint64_t begin, std::uint64_t end) {
  ShardCheckpoint ck;
  ck.fingerprint = 0xF00DULL;
  ck.network = "tiny";
  ck.trials_total = 96;
  ck.shard_begin = begin;
  ck.shard_end = end;
  ck.next_trial = end;
  ck.complete = true;
  return ck;
}

/// Asserts that merging `shards` fails with `code`, naming `culprit`.
void expect_merge_rejects(const std::vector<NamedCheckpoint>& shards,
                          Errc code, const std::string& culprit) {
  const auto merged = merge_checkpoints(shards);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code, code) << merged.error().to_string();
  EXPECT_NE(merged.error().message.find(culprit), std::string::npos)
      << merged.error().message;
}

TEST(ShardMerge, FoldsShardsToTheMonolithicAggregateInAnyOrder) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();
  const ShardResult whole = c.run_shard(opt, ShardSpec{});
  std::vector<NamedCheckpoint> shards;
  for (const auto& [b, e] : {std::pair<std::uint64_t, std::uint64_t>{0, 17},
                             {17, 50}, {50, 96}}) {
    ShardSpec spec;
    spec.begin = b;
    spec.end = e;
    const ShardResult r = c.run_shard(opt, spec);
    ShardCheckpoint ck = merge_operand(b, e);
    ck.fingerprint = c.fingerprint(opt);
    ck.acc = r.acc;
    ck.masked_exits = r.masked_exits;
    shards.push_back(NamedCheckpoint{"s" + std::to_string(b), std::move(ck)});
  }
  for (int rotation = 0; rotation < 3; ++rotation) {
    SCOPED_TRACE(rotation);
    const auto merged = merge_checkpoints(shards);
    ASSERT_TRUE(merged.ok()) << merged.error().to_string();
    const ShardCheckpoint& m = merged.value();
    EXPECT_EQ(m.acc.bytes(), whole.acc.bytes());
    EXPECT_EQ(m.masked_exits, whole.masked_exits);
    EXPECT_EQ(m.fingerprint, c.fingerprint(opt));
    EXPECT_EQ(m.network, "tiny");
    EXPECT_EQ(m.shard_begin, 0u);
    EXPECT_EQ(m.shard_end, 96u);
    EXPECT_EQ(m.next_trial, 96u);
    EXPECT_TRUE(m.complete);
    EXPECT_TRUE(m.aborted_trials.empty());
    std::rotate(shards.begin(), shards.begin() + 1, shards.end());
  }
}

TEST(ShardMerge, RejectsAnIncompleteOperand) {
  ShardCheckpoint partial = merge_operand(48, 96);
  partial.complete = false;
  partial.next_trial = 60;
  expect_merge_rejects({{"a.ckpt", merge_operand(0, 48)}, {"b.ckpt", partial}},
                       Errc::kShardMismatch, "b.ckpt");
  expect_merge_rejects({}, Errc::kShardMismatch, "nothing to merge");
}

TEST(ShardMerge, RejectsAFingerprintMismatch) {
  ShardCheckpoint other = merge_operand(48, 96);
  other.fingerprint ^= 1;
  expect_merge_rejects({{"a.ckpt", merge_operand(0, 48)}, {"b.ckpt", other}},
                       Errc::kFingerprintMismatch, "b.ckpt");
}

TEST(ShardMerge, RejectsATrialsTotalMismatch) {
  ShardCheckpoint other = merge_operand(48, 96);
  other.trials_total = 200;
  expect_merge_rejects({{"a.ckpt", merge_operand(0, 48)}, {"b.ckpt", other}},
                       Errc::kFingerprintMismatch, "b.ckpt");
}

TEST(ShardMerge, RejectsAnAxesMismatch) {
  for (std::string ShardCheckpoint::*axis :
       {&ShardCheckpoint::accel, &ShardCheckpoint::fault_op,
        &ShardCheckpoint::sampler}) {
    ShardCheckpoint other = merge_operand(48, 96);
    other.*axis = "elsewhere";
    expect_merge_rejects({{"a.ckpt", merge_operand(0, 48)}, {"b.ckpt", other}},
                         Errc::kFingerprintMismatch, "b.ckpt");
  }
}

TEST(ShardMerge, RejectsOverlappingRanges) {
  expect_merge_rejects({{"a.ckpt", merge_operand(0, 50)},
                        {"c.ckpt", merge_operand(60, 96)},
                        {"b.ckpt", merge_operand(48, 60)}},
                       Errc::kShardMismatch, "a.ckpt and b.ckpt overlap");
}

TEST(ShardMerge, QuarantinedTrialTilesOnlyOutsideTheOperandRanges) {
  // Trial 7 lies inside [0, 40) (and that operand already lists it); trial
  // 40 lies in the gap and is its own one-trial tile.
  ShardCheckpoint lo = merge_operand(0, 40);
  lo.aborted_trials = {7};
  const std::vector<NamedCheckpoint> shards = {{"hi", merge_operand(41, 96)},
                                               {"lo", lo}};
  const auto merged = merge_checkpoints(shards, {40, 7});
  ASSERT_TRUE(merged.ok()) << merged.error().to_string();
  EXPECT_TRUE(merged.value().complete);
  EXPECT_EQ(merged.value().next_trial, 96u);
  EXPECT_EQ(merged.value().aborted_trials, (std::vector<std::uint64_t>{7, 40}));

  // Without trial 40 the gap stays open; trial 7 alone closes nothing.
  const auto holed = merge_checkpoints(shards, {7});
  ASSERT_TRUE(holed.ok()) << holed.error().to_string();
  EXPECT_FALSE(holed.value().complete);
  EXPECT_EQ(holed.value().next_trial, 40u);
  EXPECT_EQ(holed.value().aborted_trials, (std::vector<std::uint64_t>{7}));
}

TEST(ShardMerge, PartialCoverageIsAnIncompleteButValidImage) {
  ShardCheckpoint lo = merge_operand(0, 40);
  lo.masked_exits = 3;
  ShardCheckpoint hi = merge_operand(60, 96);
  hi.masked_exits = 4;
  const auto merged = merge_checkpoints({{"lo", lo}, {"hi", hi}});
  ASSERT_TRUE(merged.ok()) << merged.error().to_string();
  EXPECT_FALSE(merged.value().complete);
  EXPECT_EQ(merged.value().next_trial, 40u);
  EXPECT_EQ(merged.value().masked_exits, 7u);
  // The image is one a checkpoint file can hold.
  TempFile f("merge_partial");
  ASSERT_TRUE(try_save_shard_checkpoint(f.path, merged.value()).ok());
  const auto loaded = try_load_shard_checkpoint(f.path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_FALSE(loaded.value().complete);
}

}  // namespace
}  // namespace dnnfi::fault
