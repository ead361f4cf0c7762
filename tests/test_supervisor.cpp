// End-to-end supervisor robustness: these tests exec the real
// dnnfi_campaign binary (path injected as DNNFI_CAMPAIGN_BIN) and assert
// the contract that matters — a supervised campaign's merged stats are
// byte-identical to a monolithic run of the same configuration, no matter
// what is done to the workers in between: SIGKILL mid-shard, a hung
// worker reaped by the heartbeat watchdog, or a poison trial that is
// bisected down to and quarantined — and never report another campaign's
// checkpoints as its own. The CampaignCli tests lock the CLI's usage
// errors, `merge`'s refusals and the output formats of `info`, `profile`
// and `inject`.
//
// Failure injection uses the worker's env-gated test hooks
// (DNNFI_TEST_CRASH_ONCE_FILE / DNNFI_TEST_HANG_ONCE_FILE /
// DNNFI_TEST_POISON_TRIAL), which are inert in production.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/supervisor.h"

namespace dnnfi {
namespace {

namespace fs = std::filesystem;

#ifndef DNNFI_CAMPAIGN_BIN
#error "build must define DNNFI_CAMPAIGN_BIN"
#endif
#ifndef DNNFI_REPO_MODELS
#error "build must define DNNFI_REPO_MODELS"
#endif

// One small campaign configuration shared by every test; small enough
// that a full supervised round trip is a few seconds, large enough for
// several shards per worker.
const char* kCampaignFlags =
    "--network convnet --trials 64 --seed 7 --inputs 4 --batch 16";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

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

TEST(CampaignCli, MalformedNumericFlagsAreUsageErrors) {
  // Each is a usage error: exit 2 with the usage text, never an uncaught
  // exception (exit 134) or a library precondition failure (exit 1).
  // --workers sizes the default localhost fleet; beside --hosts or
  // --hosts-file it would be silently ignored, so it is refused.
  const std::string log =
      (fs::temp_directory_path() /
       ("dnnfi_test_cli_usage_" + std::to_string(getpid()) + ".log"))
          .string();
  for (const char* flags :
       {"--trials abc", "--seed -", "--shard 3:x", "--shard 5:3",
        "--shard 20:30 --trials 10", "--inputs 0", "--workers 0",
        "--workers 2 --hosts localhost:2",
        "--hosts-file /nonexistent/hosts --workers 1",
        // Pinned axes outside the network or the struck word.
        "--bit 20", "--bit -1", "--layer 0", "--layer 99",
        "--site global-buffer --storage 16b_rb10 --bit 16"}) {
    SCOPED_TRACE(flags);
    EXPECT_EQ(run_tool(std::string("run --network alexnet ") + flags, "", log),
              2);
    EXPECT_NE(read_file(log).find("usage: dnnfi_campaign"), std::string::npos)
        << read_file(log);
  }
  fs::remove(log);
}

/// The stdout+stderr of one `DNNFI_CAMPAIGN_BIN <args>` that must exit 0.
std::string tool_output(const std::string& args) {
  const std::string log =
      (fs::temp_directory_path() /
       ("dnnfi_test_cli_out_" + std::to_string(getpid()) + ".log"))
          .string();
  const int code = run_tool(args, "", log);
  std::string out = read_file(log);
  fs::remove(log);
  EXPECT_EQ(code, 0) << args << "\n" << out;
  return out;
}

/// The four lines `inject` prints for one trial.
std::string narration(const fault::TrialRecord& tr) {
  std::ostringstream o;
  o << "fault:   " << tr.fault.describe() << "\n"
    << "value:   " << tr.record.corrupted_before << " -> "
    << tr.record.corrupted_after
    << (tr.record.zero_to_one ? "  (bit 0->1)" : "  (bit 1->0)") << "\n"
    << "outcome: " << (tr.outcome.sdc1 ? "SDC-1" : "benign/masked")
    << (tr.outcome.sdc5 ? " SDC-5" : "") << (tr.outcome.sdc10 ? " SDC-10%" : "")
    << (tr.outcome.sdc20 ? " SDC-20%" : "") << "\n"
    << "output corruption: " << tr.output_corruption * 100
    << "% of final ACTs\n";
  return o.str();
}

TEST(CampaignCli, InfoPrintsFootprintTable) {
  const std::string out = tool_output("info --network convnet");
  EXPECT_NE(out.find("network: ConvNet\ninput:   3x32x32, classes 10\n"
                     "logical layers: 5\n== MAC-layer footprints ==\n"
                     "| layer | kind | in elems | weights | out elems | MACs"
                     "    |\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("| 1     | conv | 3072     | 1200    | 16384     | "
                     "1228800 |\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\ntotal MACs: 3719808\n"), std::string::npos) << out;
}

TEST(CampaignCli, ProfilePrintsOneRowPerBlock) {
  const std::string out =
      tool_output("profile --network convnet --dtype FLOAT16 --inputs 4");
  EXPECT_NE(out.find("== fault-free value ranges: ConvNet FLOAT16 ==\n"
                     "| layer | min"),
            std::string::npos)
      << out;
  // One row per logical layer, numbered 1..5 in order.
  const std::regex row("^\\| (\\d+) +\\| -?\\d+\\.\\d{4} +\\| "
                       "-?\\d+\\.\\d{4} +\\|$",
                       std::regex::multiline);
  std::vector<int> blocks;
  for (auto it = std::sregex_iterator(out.begin(), out.end(), row);
       it != std::sregex_iterator(); ++it)
    blocks.push_back(std::stoi((*it)[1]));
  EXPECT_EQ(blocks, (std::vector<int>{1, 2, 3, 4, 5})) << out;
}

TEST(CampaignCli, InjectNarratesFourLines) {
  EXPECT_EQ(tool_output("inject --network convnet --dtype FLOAT16 "
                        "--shard 0:1 --seed 7"),
            "fault:   datapath/product block 3 elem 1259 step 122 bit 15\n"
            "value:   0 -> -0  (bit 0->1)\n"
            "outcome: benign/masked\n"
            "output corruption: 0% of final ACTs\n");
  // --shard is required, and stratified campaigns have no trial shards.
  EXPECT_EQ(run_tool("inject --network convnet"), 2);
  EXPECT_EQ(run_tool("inject --network convnet --shard 0:1 "
                     "--sampler stratified"),
            2);
}

TEST(CampaignCli, InjectNarratesTheTrialRunShardStreams) {
  // Trial 5 of a global-buffer campaign, narrated by the CLI, against the
  // record trial 5 streams from an in-process run_shard over [0, 8) with
  // the CLI's defaults (8 test-split inputs, 2000 trials).
  const std::string got =
      tool_output("inject --network convnet --dtype FLOAT16 "
                  "--site global-buffer --seed 7 --shard 5:6");

  ASSERT_EQ(setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1), 0);
  const auto id = dnn::zoo::NetworkId::kConvNet;
  const dnn::Model m = data::pretrained(id);
  const fault::Campaign c(m.spec, m.blob, numeric::DType::kFloat16,
                          data::test_examples(id, 8));
  fault::CampaignOptions opt;
  opt.trials = 2000;
  opt.seed = 7;
  opt.site = fault::SiteClass::kGlobalBuffer;
  fault::ShardSpec shard;
  shard.end = 8;
  std::optional<fault::TrialRecord> fifth;
  const fault::TrialSink sink = [&](std::uint64_t t,
                                    const fault::TrialRecord& tr) {
    if (t == 5) fifth = tr;
  };
  ASSERT_TRUE(c.run_shard(opt, shard, &sink).complete);
  ASSERT_TRUE(fifth.has_value());
  EXPECT_EQ(fifth->input_index, 5u);
  EXPECT_GT(fifth->output_corruption, 0.0);  // a trial worth narrating
  EXPECT_EQ(got, narration(*fifth));
}

TEST(CampaignCli, MergeRefusesShardsThatDoNotBelongTogether) {
  // Exit 22 for shards of different campaigns, 23 for overlapping or
  // unfinished ones; no --out file either way. Shards of one campaign merge.
  const fs::path dir = fs::temp_directory_path() /
                       ("dnnfi_test_cli_merge_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto shard = [&](const std::string& leaf, std::uint64_t begin,
                         std::uint64_t end, std::uint64_t fingerprint,
                         bool complete = true) {
    fault::ShardCheckpoint ck;
    ck.fingerprint = fingerprint;
    ck.network = "ConvNet";
    ck.trials_total = 64;
    ck.shard_begin = begin;
    ck.shard_end = end;
    ck.next_trial = complete ? end : begin;
    ck.complete = complete;
    const std::string path = (dir / leaf).string();
    EXPECT_TRUE(fault::try_save_shard_checkpoint(path, ck).ok());
    return path;
  };
  const std::string lo = shard("lo.ckpt", 0, 32, 7);
  const std::string hi = shard("hi.ckpt", 32, 64, 7);
  const std::string other = shard("other.ckpt", 32, 64, 8);
  const std::string overlap = shard("overlap.ckpt", 16, 48, 7);
  const std::string unfinished = shard("unfinished.ckpt", 32, 64, 7, false);
  const std::string out = (dir / "merged.stats").string();
  const std::string log = (dir / "merge.log").string();
  for (const auto& [second, code] :
       {std::pair<std::string, int>{other, 22}, {overlap, 23},
        {unfinished, 23}}) {
    SCOPED_TRACE(second);
    EXPECT_EQ(run_tool("merge --out " + out + " " + lo + " " + second, "", log),
              code)
        << read_file(log);
    EXPECT_NE(read_file(log).find(second), std::string::npos)
        << read_file(log);
    EXPECT_FALSE(fs::exists(out));
  }
  EXPECT_EQ(run_tool("merge --out " + out + " " + hi + " " + lo, "", log), 0)
      << read_file(log);
  EXPECT_TRUE(fs::exists(out));
  fs::remove_all(dir);
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dnnfi_test_supervisor_" +
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
                              int shard_size = 8, int workers = 2) const {
    return std::string("supervise ") + kCampaignFlags + " --workers " +
           std::to_string(workers) + " --shard-size " +
           std::to_string(shard_size) +
           " --backoff 0.05 --ckpt-dir " + (dir_ / "ckpt").string() +
           " --out " + (dir_ / "sup.stats").string() + " " + extra;
  }

  fs::path dir_;
};

/// The N of the supervise summary line "supervise: N worker(s), ...".
int workers_spawned(const std::string& log) {
  std::smatch m;
  if (!std::regex_search(log, m, std::regex("supervise: (\\d+) worker\\(s\\)")))
    return -1;
  return std::stoi(m[1]);
}

TEST_F(SupervisorTest, CleanSupervisedRunMatchesMonolithicByteForByte) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // 16 shards on 2 slots: each slot's worker lives for the whole campaign
  // and runs its shards one kInit frame after another.
  ASSERT_EQ(run_tool(supervise_flags("", 4), "", path("sup.log")), 0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_EQ(workers_spawned(read_file(path("sup.log"))), 2)
      << read_file(path("sup.log"));

  // The merged campaign checkpoint is written alongside and covers the
  // whole range with nothing quarantined.
  const auto ck =
      fault::try_load_shard_checkpoint((dir_ / "ckpt/campaign.ckpt").string());
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_TRUE(ck.value().complete);
  EXPECT_EQ(ck.value().shard_begin, 0u);
  EXPECT_EQ(ck.value().shard_end, 64u);
  EXPECT_TRUE(ck.value().aborted_trials.empty());
}

TEST_F(SupervisorTest, SupervisedStorageCampaignMatchesRun) {
  // --storage reaches the workers: the supervised stats equal a monolithic
  // run with the same flags, which differ from a run without --storage.
  const std::string flags = " --site global-buffer --no-progress --out ";
  const std::string storage = " --storage 16b_rb10";
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags + storage + flags +
                         path("run.stats"),
                     "", path("run.log")),
            0)
      << read_file(path("run.log"));
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags + flags +
                         path("plain.stats"),
                     "", path("plain.log")),
            0)
      << read_file(path("plain.log"));
  ASSERT_EQ(run_tool(supervise_flags("--site global-buffer" + storage), "",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  const std::string run = read_file(path("run.stats"));
  ASSERT_FALSE(run.empty());
  EXPECT_NE(run, read_file(path("plain.stats")));
  EXPECT_EQ(read_file(path("sup.stats")), run);
}

TEST_F(SupervisorTest, SigkilledWorkerIsRetriedAndResumesByteIdentical) {
  const std::string mono = monolithic();
  // The first worker to reach mid-shard SIGKILLs itself (fire-once via the
  // sentinel file); the supervisor must classify worker-crash as retryable,
  // retry the shard, resume from its checkpoint, and still merge clean. The
  // fleet has one slot, so the dead worker's slot must respawn before any
  // other shard runs: two workers for the 16 shards. (With two slots the
  // count would race the killed process's teardown, a few ms under load,
  // against the live worker running the other 15 shards, 0.3 ms each; when
  // those finish first, the retry goes to the idle worker and no slot
  // respawns.)
  ASSERT_EQ(run_tool(supervise_flags("", 4, 1),
                     "DNNFI_TEST_CRASH_ONCE_FILE='" + path("crashed") + "'",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_TRUE(fs::exists(path("crashed"))) << "crash hook never fired";
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find("worker-crash"), std::string::npos) << log;
  EXPECT_EQ(workers_spawned(log), 2) << log;
}

TEST_F(SupervisorTest, IdleWorkersOutliveARetryBackoffPastTheHeartbeat) {
  const std::string mono = monolithic();
  // The crashed shard waits 3-4.5 s of backoff while the other shards
  // finish on the one slot's respawned worker, which then sits idle past
  // the 2 s heartbeat deadline. An idle worker owes no heartbeat: it is not
  // killed, and the retried shard goes to it instead of a new process, so
  // exactly two workers spawn. (One slot, as in the test above, keeps that
  // count from racing the crashed worker's teardown. The later --backoff
  // overrides the fixture's.) A busy worker's first beat comes only after
  // its model load, golden caches and first batch; the 2 s deadline leaves
  // that startup room under a loaded parallel ctest, and the backoff is
  // scaled with it so the idle stretch still outlasts the deadline.
  const std::string flags =
      supervise_flags("--backoff 3 --heartbeat-timeout 2", 4, 1);
  ASSERT_EQ(run_tool(flags,
                     "DNNFI_TEST_CRASH_ONCE_FILE='" + path("crashed") + "'",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_TRUE(fs::exists(path("crashed"))) << "crash hook never fired";
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find(" 0 watchdog kill(s)"), std::string::npos) << log;
  EXPECT_EQ(workers_spawned(log), 2) << log;
}

TEST_F(SupervisorTest, HungWorkerIsKilledByHeartbeatWatchdog) {
  const std::string mono = monolithic();
  // The first worker to reach mid-shard stops heartbeating forever; only
  // the watchdog can end it. A short deadline keeps the test fast.
  ASSERT_EQ(run_tool(supervise_flags("--heartbeat-timeout 1.5"),
                     "DNNFI_TEST_HANG_ONCE_FILE='" + path("hung") + "'",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_TRUE(fs::exists(path("hung"))) << "hang hook never fired";
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("watchdog"), std::string::npos);
}

TEST_F(SupervisorTest, PoisonTrialIsBisectedToAndQuarantined) {
  // Trial 37 aborts the worker on every attempt. Retries cannot help;
  // bisection must converge on exactly that trial, quarantine it, and
  // complete the campaign with the other 63 trials aggregated.
  ASSERT_EQ(run_tool(supervise_flags(), "DNNFI_TEST_POISON_TRIAL=37",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  const std::string stats = read_file(path("sup.stats"));
  EXPECT_NE(stats.find("\naborted 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\naborted_trial 37\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("trials 63\n"), std::string::npos) << stats;

  const auto ck =
      fault::try_load_shard_checkpoint((dir_ / "ckpt/campaign.ckpt").string());
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_EQ(ck.value().aborted_trials, (std::vector<std::uint64_t>{37}));

  // The failures all land on the only host, which must never be benched:
  // there is nowhere else to send the work.
  const std::string log = read_file(path("sup.log"));
  EXPECT_FALSE(std::regex_search(log, std::regex("host \\S+ quarantined")))
      << log;
  EXPECT_NE(log.find(" 0 host quarantine(s)"), std::string::npos) << log;
}

TEST_F(SupervisorTest, CheckpointsOfAnotherCampaignAreNeverReported) {
  // A finished seed-7 directory, then seed 8 pointed at it twice: once as
  // it stands (every shard already complete, nothing left to run), and
  // once with the merged checkpoint and one shard removed, so a seed-8 run
  // would have a shard to run. Both are fingerprint mismatches (exit 22)
  // refused by the startup scan: no worker spawns, no shard reruns and
  // nothing is written to --out.
  ASSERT_EQ(run_tool(supervise_flags(), "", path("seed7.log")), 0)
      << read_file(path("seed7.log"));
  fs::remove(path("sup.stats"));
  fs::remove_all(dir_ / "ckpt/logs");

  EXPECT_EQ(run_tool(supervise_flags("--seed 8"), "", path("whole.log")),
            exit_code(Errc::kFingerprintMismatch))
      << read_file(path("whole.log"));
  EXPECT_FALSE(fs::exists(path("sup.stats")));

  ASSERT_TRUE(fs::remove(dir_ / "ckpt/campaign.ckpt"));
  ASSERT_TRUE(fs::remove(dir_ / "ckpt/shard_0_8.ckpt"));
  EXPECT_EQ(run_tool(supervise_flags("--seed 8"), "", path("mixed.log")),
            exit_code(Errc::kFingerprintMismatch))
      << read_file(path("mixed.log"));
  EXPECT_FALSE(fs::exists(path("sup.stats")));
  EXPECT_FALSE(fs::exists(dir_ / "ckpt/shard_0_8.ckpt"));
  EXPECT_FALSE(fs::exists(dir_ / "ckpt/logs/worker_1.log"));
  const std::string mixed = read_file(path("mixed.log"));
  EXPECT_EQ(mixed.find(" started on "), std::string::npos) << mixed;
  // The error names a seed-7 shard, not the campaign as a whole.
  std::smatch error;
  ASSERT_TRUE(std::regex_search(mixed, error, std::regex("error: .*")))
      << mixed;
  EXPECT_TRUE(std::regex_search(error.str(),
                                std::regex("shard_[0-9]+_[0-9]+\\.ckpt")))
      << mixed;
  EXPECT_NE(error.str().find("belongs to a different campaign"),
            std::string::npos)
      << mixed;
}

TEST_F(SupervisorTest, ShippedCheckpointOfAnotherCampaignIsFatal) {
  // The supervisor expects another campaign than its worker flags define:
  // the first checkpoint a worker ships is refused, and the campaign ends
  // on a fatal fingerprint mismatch instead of retrying or merging.
  fault::SupervisorOptions so;
  so.binary = DNNFI_CAMPAIGN_BIN;
  so.trials = 64;
  so.shard_size = 32;
  so.workers = 1;
  so.checkpoint_dir = path("ckpt");
  so.verbose = false;
  so.worker_flags = {"--network", "convnet", "--trials", "64", "--seed", "7",
                     "--inputs", "4", "--batch", "16"};
  so.fingerprint = 1;
  ASSERT_EQ(setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1), 0);
  const auto rep = fault::supervise(so);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.error().code, Errc::kFingerprintMismatch)
      << rep.error().to_string();
  EXPECT_NE(rep.error().message.find("belongs to a different campaign"),
            std::string::npos)
      << rep.error().to_string();
  EXPECT_FALSE(fs::exists(path("ckpt/campaign.ckpt")));
}

TEST_F(SupervisorTest, GracefulSigtermSavesCheckpointAndResumeMatches) {
  const std::string mono = monolithic();
  const std::string ckpt = path("run.ckpt");
  const std::string out = path("resumed.stats");

  // Launch a monolithic run directly (no shell wrapper, so the pid we
  // signal is the tool itself), interrupt it mid-campaign, and expect the
  // distinct "interrupted" exit code plus a loadable checkpoint.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    // Slow the run down enough to be interruptible: many more trials,
    // checkpoint every batch.
    execl(DNNFI_CAMPAIGN_BIN, DNNFI_CAMPAIGN_BIN, "run", "--network",
          "convnet", "--trials", "100000", "--seed", "7", "--inputs", "4",
          "--batch", "16", "--no-progress", "--checkpoint", ckpt.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  // Give it time to load the model and fold at least one batch, then ask
  // for a graceful stop.
  for (int i = 0; i < 200 && !fs::exists(ckpt); ++i) usleep(100 * 1000);
  ASSERT_TRUE(fs::exists(ckpt)) << "no checkpoint appeared within 20s";
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int st = 0;
  ASSERT_EQ(waitpid(pid, &st, 0), pid);
  ASSERT_TRUE(WIFEXITED(st)) << "tool died on the signal instead of exiting";
  EXPECT_EQ(WEXITSTATUS(st), exit_code(Errc::kInterrupted));

  const auto ck = fault::try_load_shard_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_FALSE(ck.value().complete);
  EXPECT_GT(ck.value().next_trial, 0u);

  // A fresh 64-trial campaign over the same seed still matches the
  // monolithic reference — the interrupted run shares its prefix but must
  // not have disturbed anything global (model cache, results dirs).
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                         " --no-progress --out " + out,
                     "", path("rerun.log")),
            0)
      << read_file(path("rerun.log"));
  EXPECT_EQ(read_file(out), mono);
}

}  // namespace
}  // namespace dnnfi
