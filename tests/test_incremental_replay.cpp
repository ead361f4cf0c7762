// Incremental fault replay, locked down: seeding trials from the per-input
// ActivationCache and early-exiting when a replayed layer matches the cache
// bit-for-bit is purely a speed optimization — every TrialRecord a campaign
// streams out is byte-identical to the full-replay run, across dtypes,
// injection depths, thread counts, and site classes (DESIGN.md §8).
#include <gtest/gtest.h>

#include "campaign_fixture.h"
#include "dnnfi/accel/dataflow.h"
#include "dnnfi/mitigate/sed.h"

namespace dnnfi::fault {
namespace {

// ---------------------------------------------------------------------------
// The core equivalence: incremental replay (cache seeding + masked-fault
// early exit) streams byte-identical TrialRecords to the full replay, for
// two dtypes x every injection depth (early/mid/late logical block) x
// 1 and 8 worker threads. The incremental run must actually early-exit
// somewhere (otherwise this test would be vacuous) and the full run never.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, ByteIdenticalAcrossDepthsDtypesThreads) {
  for (const DType dt : {DType::kFloat16, DType::kFx32r10}) {
    const Campaign c = tiny_campaign(dt);
    std::uint64_t masked_somewhere = 0;
    for (const int block : {1, 2, 3}) {
      CampaignOptions opt = base_options();
      opt.constraint.fixed_block = block;

      opt.incremental_replay = false;
      const ShardCapture full = capture(c, opt);
      ASSERT_TRUE(full.result.complete);
      EXPECT_EQ(full.result.masked_exits, 0u)
          << "full replay must never early-exit";

      for (const std::size_t workers : {0UL, 8UL}) {
        ThreadPool pool(workers);
        opt.pool = &pool;
        opt.incremental_replay = true;
        const ShardCapture inc = capture(c, opt);
        ASSERT_TRUE(inc.result.complete);
        EXPECT_EQ(inc.records, full.records)
            << "dtype " << static_cast<int>(dt) << " block " << block << " "
            << workers << " workers";
        EXPECT_EQ(inc.result.acc.bytes(), full.result.acc.bytes());
        masked_somewhere += inc.result.masked_exits;
        opt.pool = nullptr;
      }
    }
    EXPECT_GT(masked_somewhere, 0u)
        << "no trial was ever masked; the early exit went unexercised";
  }
}

// The global-buffer site class takes the flip-layer-input lowering (the
// whole target layer re-executes), a different record-writing path than
// datapath patches; it must be byte-identical too.
TEST(IncrementalReplay, ByteIdenticalGlobalBufferSite) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = base_options();
  opt.site = SiteClass::kGlobalBuffer;

  opt.incremental_replay = false;
  const ShardCapture full = capture(c, opt);
  opt.incremental_replay = true;
  const ShardCapture inc = capture(c, opt);
  EXPECT_EQ(inc.records, full.records);
  EXPECT_EQ(inc.result.acc.bytes(), full.result.acc.bytes());
}

// ---------------------------------------------------------------------------
// ActivationCache integrity: cache entries equal a fresh fault-free forward
// bit-for-bit, including after the workspace has been reused for 100 faulty
// replays (the cache is immutable; replays only touch workspace slots).
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, CacheMatchesFreshForwardAfterWorkspaceReuse) {
  using T = numeric::Half;
  const auto spec = tiny_spec();
  const auto net = dnn::instantiate<T>(spec, tiny_blob());
  const auto inputs = tiny_inputs(1);
  const auto image = tensor::convert<T>(inputs[0].image);

  const dnn::ActivationCache<T> cache(net.plan(), image);
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());

  Sampler sampler(spec, DType::kFloat16);
  for (std::size_t t = 0; t < 100; ++t) {
    Rng rng = derive_stream(5, t);
    const auto fd = sampler.sample(SiteClass::kDatapathLatch, rng);
    auto out = inject(exec, ws, net.mac_layers(), cache, fd);
    ASSERT_FALSE(out.empty());
  }

  // A plain run through the same (reused) workspace reproduces every cached
  // layer boundary.
  std::size_t seen = 0;
  const dnn::LayerObserver<T> observer =
      [&](std::size_t i, tensor::ConstTensorView<T> act) {
        EXPECT_TRUE(tensor::bitwise_equal<T>(cache.act(i), act))
            << "layer " << i;
        ++seen;
      };
  dnn::RunRequest<T> req;
  req.input = image;
  req.observer = &observer;
  exec.run(ws, req);
  EXPECT_EQ(seen, cache.num_layers());
  EXPECT_TRUE(tensor::bitwise_equal<T>(cache.input(),
                                       tensor::ConstTensorView<T>(image)));
}

// ---------------------------------------------------------------------------
// masked_exits is deterministic, carried through checkpoints, and summed
// correctly across a kill/resume boundary.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, MaskedExitsSurviveCheckpointResume) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();

  const ShardResult whole = c.run_shard(opt, ShardSpec{});
  ASSERT_TRUE(whole.complete);
  ASSERT_GT(whole.masked_exits, 0u);

  TempFile ck("masked_resume");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  shard.batch = 16;
  shard.stop_after = 40;
  const ShardResult stopped = c.run_shard(opt, shard);
  ASSERT_FALSE(stopped.complete);

  const ShardCheckpoint on_disk = load_shard_checkpoint(ck.path);
  EXPECT_EQ(on_disk.masked_exits, stopped.masked_exits);

  shard.stop_after = 0;
  const ShardResult resumed = c.run_shard(opt, shard);
  ASSERT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.masked_exits, whole.masked_exits);
  EXPECT_EQ(resumed.acc.bytes(), whole.acc.bytes());
}

// ---------------------------------------------------------------------------
// SedDetector::flags on every block end of a fault-free cache: the verdicts
// an early exit stands on for the blocks it skips.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, SedGoldenFlagsMatchPerBlockScan) {
  using T = numeric::Half;
  const auto spec = tiny_spec();
  const auto net = dnn::instantiate<T>(spec, tiny_blob());
  const auto image = tensor::convert<T>(tiny_inputs(1)[0].image);
  const dnn::ActivationCache<T> cache(net.plan(), image);
  const auto ends = block_end_layers(spec);

  // Learned-from-golden bounds never flag the golden activations.
  const Campaign c = tiny_campaign(DType::kFloat16);
  const mitigate::SedDetector learned(c.golden_block_ranges(), 0.10);
  for (std::size_t b = 0; b < ends.size(); ++b)
    EXPECT_FALSE(
        learned.flags<T>(static_cast<int>(b) + 1, cache.act(ends[b])))
        << "block " << b + 1;

  // Absurdly tight bounds flag every block.
  const mitigate::SedDetector tight(
      std::vector<BlockRange>(ends.size(), BlockRange{-1e-30, 1e-30}), 0.0);
  for (std::size_t b = 0; b < ends.size(); ++b)
    EXPECT_TRUE(tight.flags<T>(static_cast<int>(b) + 1, cache.act(ends[b])))
        << "block " << b + 1;
}

// ---------------------------------------------------------------------------
// accel::analyze_range / macs_in_range: the static accounting of what a
// layer-range replay executes partitions the full-network totals.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, DataflowRangeAccountingPartitionsTotals) {
  const auto spec = tiny_spec();
  const auto all = accel::analyze(spec);
  const std::size_t n = spec.layers.size();

  EXPECT_EQ(accel::macs_in_range(all, 0, n), accel::total_macs(all));
  const auto whole = accel::analyze_range(spec, 0, n);
  ASSERT_EQ(whole.size(), all.size());

  // Any split point partitions both the footprint list and the MAC total.
  for (std::size_t k = 1; k < n; ++k) {
    const auto lo = accel::analyze_range(spec, 0, k);
    const auto hi = accel::analyze_range(spec, k, n);
    EXPECT_EQ(lo.size() + hi.size(), all.size()) << "split " << k;
    EXPECT_EQ(accel::macs_in_range(all, 0, k) + accel::macs_in_range(all, k, n),
              accel::total_macs(all))
        << "split " << k;
  }
}

}  // namespace
}  // namespace dnnfi::fault
