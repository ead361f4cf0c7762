// The stratified-sampling contract, locked down from three sides:
//  - the StratumSet is a true partition of the uniform sampler's site
//    population (weights sum to 1, every uniform draw maps into exactly one
//    stratum at its advertised probability, conditional draws stay inside
//    their stratum) for BOTH accelerator geometries;
//  - the Horvitz–Thompson estimate driven through the real adaptive
//    allocator is unbiased against an exhaustively enumerated synthetic
//    ground truth, across 50 independent seeds;
//  - a stratified campaign is byte-identical across thread counts and
//    across kill/resume/merge boundaries, exactly like the uniform shards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dnnfi/accel/accelerator.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/stats_io.h"
#include "dnnfi/fault/strata.h"

namespace dnnfi::fault {
namespace {

using dnn::SpecBuilder;
using numeric::DType;
using tensor::chw;
using tensor::Tensor;

dnn::NetworkSpec tiny_spec() {
  return SpecBuilder("tiny", chw(2, 8, 8), 4)
      .conv(3, 3, 1, 1).relu().maxpool(2, 2)
      .conv(4, 3, 1, 1).relu().maxpool(2, 2)
      .fc(4).softmax()
      .build();
}

dnn::WeightsBlob tiny_blob() {
  dnn::Network<float> net(tiny_spec());
  dnn::init_weights(net, 1);
  return dnn::extract_weights(net);
}

std::vector<dnn::Example> tiny_inputs(std::size_t n) {
  std::vector<dnn::Example> v;
  for (std::size_t s = 0; s < n; ++s) {
    dnn::Example ex;
    ex.image = Tensor<float>(chw(2, 8, 8));
    Rng rng = derive_stream(1234, s);
    for (std::size_t i = 0; i < ex.image.size(); ++i)
      ex.image[i] = static_cast<float>(rng.normal() * 0.6);
    ex.label = 0;
    v.push_back(std::move(ex));
  }
  return v;
}

Campaign tiny_campaign(DType dt) {
  return Campaign(tiny_spec(), tiny_blob(), dt, tiny_inputs(3));
}

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          ("dnnfi_test_" + stem + "_" + std::to_string(::getpid()) + ".ckpt"))
      .string();
}

struct TempFile {
  explicit TempFile(const std::string& stem) : path(temp_path(stem)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

// ---------------------------------------------------------------------------
// Partition checks: the StratumSet covers the exact uniform-draw population,
// on the paper's Eyeriss geometry and on the systolic array alike.
// ---------------------------------------------------------------------------

void check_partition(const Sampler& sampler, SiteClass site) {
  const StratumSet set(sampler, site);
  ASSERT_GT(set.size(), 0u);

  // Weights are positive, exact probabilities, and sum to 1.
  double sum = 0;
  std::set<std::string> ids;
  for (std::size_t h = 0; h < set.size(); ++h) {
    EXPECT_GT(set.weight(h), 0.0) << set.stratum(h).id();
    sum += set.weight(h);
    EXPECT_TRUE(ids.insert(set.stratum(h).id()).second)
        << "duplicate stratum id " << set.stratum(h).id();
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);

  // Every uniform draw of the base sampler lands in exactly one stratum,
  // and the empirical frequencies match the advertised weights (within a
  // 5-sigma binomial band — deterministic, the seed is fixed).
  constexpr std::size_t kDraws = 20000;
  std::vector<std::size_t> count(set.size(), 0);
  Rng rng = derive_stream(99, 0);
  for (std::size_t t = 0; t < kDraws; ++t) {
    const FaultDescriptor fd = sampler.sample(site, rng);
    const std::size_t h = set.index_of(fd);
    ASSERT_LT(h, set.size());
    ++count[h];
  }
  for (std::size_t h = 0; h < set.size(); ++h) {
    const double w = set.weight(h);
    const double freq = static_cast<double>(count[h]) / kDraws;
    const double sigma = std::sqrt(w * (1.0 - w) / kDraws);
    EXPECT_NEAR(freq, w, 5.0 * sigma + 1e-9)
        << set.stratum(h).id() << " drawn " << count[h] << "/" << kDraws;
  }

  // Conditional draws stay inside their stratum.
  for (std::size_t h = 0; h < set.size(); ++h) {
    Rng sub = derive_stream(7, h);
    for (int rep = 0; rep < 8; ++rep) {
      const FaultDescriptor fd = set.sample(h, sub);
      EXPECT_EQ(set.index_of(fd), h) << set.stratum(h).id();
    }
  }
}

TEST(StratifiedSampling, PartitionEyerissDatapath) {
  const Sampler s(tiny_spec(), DType::kFloat16);
  check_partition(s, SiteClass::kDatapathLatch);
}

TEST(StratifiedSampling, PartitionEyerissBuffer) {
  const Sampler s(tiny_spec(), DType::kFloat16);
  check_partition(s, SiteClass::kFilterSram);
}

TEST(StratifiedSampling, PartitionSystolicDatapath) {
  accel::AcceleratorConfig cfg;
  cfg.kind = accel::AcceleratorKind::kSystolic;
  cfg.rows = 4;
  cfg.cols = 4;
  const auto model = accel::make_accelerator(cfg);
  const Sampler s(tiny_spec(), DType::kFloat16, *model);
  check_partition(s, SiteClass::kDatapathLatch);
}

TEST(StratifiedSampling, PartitionSystolicBuffer) {
  accel::AcceleratorConfig cfg;
  cfg.kind = accel::AcceleratorKind::kSystolic;
  cfg.rows = 4;
  cfg.cols = 4;
  const auto model = accel::make_accelerator(cfg);
  const Sampler s(tiny_spec(), DType::kFloat16, *model);
  check_partition(s, SiteClass::kFilterSram);
}

// ---------------------------------------------------------------------------
// HT unbiasedness against enumerated ground truth. A synthetic population
// with exactly known per-stratum rates is driven through the *real*
// controller (next_allocation), so the check covers the estimator under the
// adaptive, data-dependent allocation it actually runs with — the regime
// where a naive (optional-stopping-blind) estimator goes biased.
// ---------------------------------------------------------------------------

struct SyntheticStratum {
  double weight;       // uniform-draw probability W_h
  std::uint64_t pop;   // enumerated population size m_h
  std::uint64_t sdc;   // sites (of pop) whose strike is an SDC
};

// Truth = sum W_h * sdc_h / pop_h, exact by enumeration.
double enumerate_truth(const std::vector<SyntheticStratum>& pop) {
  double truth = 0;
  for (const SyntheticStratum& s : pop)
    truth += s.weight * static_cast<double>(s.sdc) / static_cast<double>(s.pop);
  return truth;
}

// One full adaptive campaign over the synthetic population: stratum h's
// trial t draws site derive_stream(seed, h, t).below(pop) — a hit iff the
// site index falls among the enumerated SDC sites — mirroring the real
// campaign's substream keying exactly.
std::vector<StratumCounts> simulate(const std::vector<SyntheticStratum>& pop,
                                    const StratifiedOptions& opt,
                                    std::uint64_t budget, std::uint64_t seed) {
  std::vector<StratumCounts> s(pop.size());
  for (std::size_t h = 0; h < pop.size(); ++h) s[h].weight = pop[h].weight;
  std::uint64_t spent = 0;
  while (spent < budget) {
    const std::vector<std::uint64_t> plan =
        next_allocation(s, opt, budget - spent);
    if (plan.empty()) break;
    for (std::size_t h = 0; h < pop.size(); ++h) {
      for (std::uint64_t k = 0; k < plan[h]; ++k) {
        Rng rng = derive_stream(seed, h, s[h].n);
        if (rng.below(pop[h].pop) < pop[h].sdc) ++s[h].hits;
        ++s[h].n;
        ++spent;
      }
    }
  }
  return s;
}

std::vector<SyntheticStratum> synthetic_population() {
  // Rare-event shape, like the paper's Fig 4: a few hot strata carry nearly
  // all the SDC probability, most strata are dead or nearly so.
  return {
      {0.02, 16, 8},   // hot: p = 0.5
      {0.03, 32, 8},   // p = 0.25
      {0.05, 64, 4},   // p = 0.0625
      {0.10, 128, 4},  // p = 0.03125
      {0.10, 256, 2},  // rare: p ~ 0.0078
      {0.15, 512, 1},  // very rare
      {0.15, 64, 0},   // dead
      {0.20, 64, 0},   // dead
      {0.12, 32, 0},   // dead
      {0.08, 16, 0},   // dead
  };
}

TEST(StratifiedSampling, HTUnbiasedAcross50Seeds) {
  const std::vector<SyntheticStratum> pop = synthetic_population();
  const double truth = enumerate_truth(pop);
  ASSERT_GT(truth, 0.0);

  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0;  // budget-bound: every seed spends the same trials

  constexpr int kSeeds = 50;
  constexpr std::uint64_t kBudget = 2000;
  double mean = 0;
  double m2 = 0;
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<StratumCounts> s = simulate(pop, opt, kBudget, seed);
    const StratifiedEstimate e = stratified_estimate(s);
    if (e.est.lo <= truth && truth <= e.est.hi) ++covered;
    const double d = e.est.p - mean;
    mean += d / static_cast<double>(seed);
    m2 += d * (e.est.p - mean);
  }
  const double sd = std::sqrt(m2 / (kSeeds - 1));
  const double sem = sd / std::sqrt(static_cast<double>(kSeeds));

  // Unbiasedness: the mean of 50 independent HT estimates sits within 4
  // standard errors of the enumerated truth. A controller that freezes
  // unlucky all-miss pilots (the raw-Neyman-score bug) fails this by many
  // sigma — the estimate collapses toward the hot strata only.
  EXPECT_NEAR(mean, truth, 4.0 * sem)
      << "truth " << truth << " mean " << mean << " sem " << sem;
  // Nominal-95% intervals must actually cover across the seeds.
  EXPECT_GE(covered, 45) << "covered " << covered << "/50, truth " << truth;
}

TEST(StratifiedSampling, HTExactOnDeterministicStrata) {
  // All-hit and all-miss strata: the point estimate must equal the
  // enumerated truth exactly — no continuity-correction leakage into p̂.
  const std::vector<SyntheticStratum> pop = {
      {0.25, 8, 8},  // always SDC
      {0.50, 8, 0},  // never
      {0.25, 8, 8},  // always
  };
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 16;
  opt.target_ci = 0;
  const std::vector<StratumCounts> s = simulate(pop, opt, 120, 3);
  const StratifiedEstimate e = stratified_estimate(s);
  EXPECT_DOUBLE_EQ(e.est.p, 0.5);
  EXPECT_LE(e.est.lo, 0.5);
  EXPECT_GE(e.est.hi, 0.5);
}

// ---------------------------------------------------------------------------
// Determinism: thread-count invariance and kill/resume/merge byte identity
// for the real stratified campaign.
// ---------------------------------------------------------------------------

CampaignOptions stratified_options() {
  CampaignOptions opt;
  opt.sampler = SamplerMode::kStratified;
  opt.trials = 240;  // budget
  opt.seed = 77;
  opt.record_block_distances = true;
  opt.detector = [](int, double v) { return v > 40.0 || v < -40.0; };
  opt.stratified.pilot = 2;
  opt.stratified.round = 48;
  opt.stratified.target_ci = 0;  // budget-bound pins the trial count
  return opt;
}

void expect_same_result(const StratifiedResult& a, const StratifiedResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.masked_exits, b.masked_exits);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.pooled.bytes(), b.pooled.bytes());
  ASSERT_EQ(a.per_stratum.size(), b.per_stratum.size());
  for (std::size_t h = 0; h < a.per_stratum.size(); ++h)
    EXPECT_EQ(a.per_stratum[h].bytes(), b.per_stratum[h].bytes())
        << a.strata[h].id();
}

TEST(StratifiedSampling, ThreadCountInvariance) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = stratified_options();

  ThreadPool serial(0);
  opt.pool = &serial;
  const StratifiedResult base = c.run_stratified(opt);
  ASSERT_TRUE(base.complete);
  ASSERT_EQ(base.trials, opt.trials);

  for (const std::size_t workers : {2UL, 8UL}) {
    ThreadPool pool(workers);
    opt.pool = &pool;
    const StratifiedResult r = c.run_stratified(opt);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_result(base, r);
  }
}

std::string stats_text(const Campaign& c, const CampaignOptions& opt,
                       const StratifiedResult& r) {
  StratifiedStatsSection section;
  for (std::size_t h = 0; h < r.strata.size(); ++h) {
    StratumStats st;
    st.id = r.strata[h].id();
    st.weight = r.weights[h];
    st.trials = r.per_stratum[h].trials();
    st.sdc1 = r.per_stratum[h].sdc1().hits;
    st.sdc5 = r.per_stratum[h].sdc5().hits;
    st.sdc10 = r.per_stratum[h].sdc10().hits;
    st.sdc20 = r.per_stratum[h].sdc20().hits;
    section.strata.push_back(std::move(st));
  }
  StatsAxes axes;
  axes.sampler = sampler_id(opt);
  std::ostringstream os;
  write_stats(os, c.fingerprint(opt), r.pooled, r.masked_exits, {}, axes,
              &section);
  return os.str();
}

TEST(StratifiedSampling, KillResumeMergeByteIdentical) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = stratified_options();
  ThreadPool serial(0);
  opt.pool = &serial;

  // The uninterrupted reference run.
  const StratifiedResult once = c.run_stratified(opt);
  ASSERT_TRUE(once.complete);

  // Kill after ~70 new trials (mid-round), then resume to completion.
  TempFile ckpt("stratified_resume");
  ShardSpec stop;
  stop.checkpoint = ckpt.path;
  stop.batch = 16;
  stop.stop_after = 70;
  const StratifiedResult partial = c.run_stratified(opt, stop);
  EXPECT_FALSE(partial.complete);
  EXPECT_LT(partial.trials, opt.trials);

  ShardSpec resume;
  resume.checkpoint = ckpt.path;
  resume.batch = 16;
  const StratifiedResult resumed = c.run_stratified(opt, resume);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_TRUE(resumed.complete);
  expect_same_result(once, resumed);

  // Stats written from the resumed result are byte-identical to the
  // uninterrupted run's.
  EXPECT_EQ(stats_text(c, opt, once), stats_text(c, opt, resumed));

  // Merge leg: the final checkpoint on disk carries the same per-stratum
  // state the in-memory result does — what `dnnfi_campaign merge` re-emits.
  const ShardCheckpoint ck = load_shard_checkpoint(ckpt.path);
  EXPECT_EQ(ck.fingerprint, c.fingerprint(opt));
  EXPECT_EQ(ck.sampler, sampler_id(opt));
  ASSERT_TRUE(ck.stratified.has_value());
  EXPECT_EQ(ck.acc.bytes(), once.pooled.bytes());
  ASSERT_EQ(ck.stratified->strata.size(), once.per_stratum.size());
  for (std::size_t h = 0; h < once.per_stratum.size(); ++h) {
    EXPECT_EQ(ck.stratified->strata[h].id, once.strata[h].id());
    EXPECT_EQ(ck.stratified->strata[h].acc.bytes(),
              once.per_stratum[h].bytes())
        << once.strata[h].id();
  }
}

TEST(StratifiedSampling, ResumeAcrossThreadCounts) {
  // Stop under one pool size, resume under another: still byte-identical.
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = stratified_options();

  ThreadPool serial(0);
  opt.pool = &serial;
  const StratifiedResult once = c.run_stratified(opt);

  TempFile ckpt("stratified_xthread");
  ThreadPool pool2(2);
  opt.pool = &pool2;
  ShardSpec stop;
  stop.checkpoint = ckpt.path;
  stop.batch = 16;
  stop.stop_after = 90;
  const StratifiedResult partial = c.run_stratified(opt, stop);
  EXPECT_FALSE(partial.complete);

  ThreadPool pool8(8);
  opt.pool = &pool8;
  ShardSpec resume;
  resume.checkpoint = ckpt.path;
  resume.batch = 16;
  const StratifiedResult resumed = c.run_stratified(opt, resume);
  ASSERT_TRUE(resumed.complete);
  expect_same_result(once, resumed);
}

TEST(StratifiedSampling, ResumeRejectsMismatchedCheckpoints) {
  // The error codes a stratified resume must keep: the shared checkpoint
  // validator's (fingerprint, range, axes) and the stratum-layout checks.
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = stratified_options();
  ThreadPool serial(0);
  TempFile ckpt("stratified_reject");
  ShardSpec shard;
  shard.checkpoint = ckpt.path;
  shard.batch = 16;
  shard.stop_after = 70;
  {
    CampaignOptions o = opt;
    o.pool = &serial;
    ASSERT_FALSE(c.run_stratified(o, shard).complete);
  }
  const ShardCheckpoint good = load_shard_checkpoint(ckpt.path);
  ASSERT_TRUE(good.stratified.has_value());
  ASSERT_GT(good.stratified->strata.size(), 1u);

  const auto code_of = [&](const CampaignOptions& o,
                           const ShardSpec& s) -> std::optional<Errc> {
    CampaignOptions run = o;
    run.pool = &serial;
    try {
      c.run_stratified(run, s);
    } catch (const CheckpointError& e) {
      return e.code();
    }
    return std::nullopt;
  };

  // A run with a different seed.
  CampaignOptions reseeded = opt;
  reseeded.seed += 1;
  EXPECT_EQ(code_of(reseeded, shard), Errc::kFingerprintMismatch);

  // A uniform campaign's checkpoint.
  TempFile uniform_ckpt("stratified_reject_uniform");
  ShardSpec uniform_shard;
  uniform_shard.checkpoint = uniform_ckpt.path;
  CampaignOptions uniform = opt;
  uniform.sampler = SamplerMode::kUniform;
  uniform.pool = &serial;
  ASSERT_TRUE(c.run_shard(uniform, uniform_shard).complete);
  EXPECT_EQ(code_of(opt, uniform_shard), Errc::kFingerprintMismatch);

  // Re-saved with one stratum dropped (and its plan entry, so the file
  // itself stays well-formed).
  ShardCheckpoint dropped = good;
  StratifiedCheckpoint& d = *dropped.stratified;
  d.strata.pop_back();
  if (!d.plan.empty()) {
    d.plan.pop_back();
    d.cursor = std::min(
        d.cursor, std::accumulate(d.plan.begin(), d.plan.end(),
                                  std::uint64_t{0}));
  }
  save_shard_checkpoint(ckpt.path, dropped);
  EXPECT_EQ(code_of(opt, shard), Errc::kShardMismatch);

  // Re-saved with one stratum id renamed.
  ShardCheckpoint renamed = good;
  renamed.stratified->strata[1].id += "-renamed";
  save_shard_checkpoint(ckpt.path, renamed);
  EXPECT_EQ(code_of(opt, shard), Errc::kShardMismatch);

  // A flipped byte.
  save_shard_checkpoint(ckpt.path, good);
  std::string bytes;
  {
    std::ifstream in(ckpt.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  std::ofstream(ckpt.path, std::ios::binary) << bytes;
  EXPECT_THROW(c.run_stratified(opt, shard), CheckpointError);
}

}  // namespace
}  // namespace dnnfi::fault
