// Extension (fault-model ablation): multi-bit upsets. The paper models
// single-event single-bit upsets; shrinking nodes increasingly produce
// adjacent multi-bit upsets from one strike — which also defeat SEC-DED
// ECC. This ablation sweeps the burst length and reports SDC-1 for
// datapath and global-buffer strikes.
//
// The burst is expressed through the mask-based fault-op model (DESIGN.md
// §11): a contiguous toggle burst of N bits. FaultOpSpec{toggle, N}
// materializes to exactly the mask numeric::flip_burst always XORed, so
// this sweep is byte-identical to the pre-FaultOp burst campaigns — the
// equivalence is asserted below before any trial runs.
#include "bench_util.h"

using namespace dnnfi;
using namespace dnnfi::benchutil;

int main() {
  const std::size_t n = samples();
  banner("Ablation — multi-bit (burst) upsets, AlexNet-S FLOAT16 & 16b_rb10", n);

  const NetContext ctx = load_net(NetworkId::kAlexNetS);
  for (const auto dt : {numeric::DType::kFloat16, numeric::DType::kFx16r10}) {
    fault::Campaign campaign(ctx.model.spec, ctx.model.blob, dt, ctx.inputs);
    Table t("burst-length sweep, " + std::string(numeric::dtype_name(dt)) +
            " (n=" + std::to_string(n) + "/cell)");
    t.header({"burst bits", "datapath SDC-1", "global-buffer SDC-1"});
    for (const int burst : {1, 2, 4, 8}) {
      fault::FaultOpSpec op;
      op.kind = fault::FaultOpKind::kToggle;
      op.burst = burst;
      // Legacy-equivalence guard: the toggle op materialized at any bit is
      // the flip_burst mask of the same (bit, length).
      for (const int bit : {0, 3, 11})
        DNNFI_EXPECTS(op.at(bit) == fault::FaultOp::flip(bit, burst));

      fault::CampaignOptions dp;
      dp.trials = n;
      dp.seed = 31017;
      dp.constraint.op = op;
      const auto e_dp = run_streaming(campaign, dp).sdc1();

      fault::CampaignOptions gb = dp;
      gb.site = fault::SiteClass::kGlobalBuffer;
      const auto e_gb = run_streaming(campaign, gb).sdc1();
      t.row({std::to_string(burst), Table::pct_ci(e_dp.p, e_dp.ci95),
             Table::pct_ci(e_gb.p, e_gb.ci95)});
    }
    emit(t, "ablation_multibit_" + std::string(numeric::dtype_name(dt)));
  }
  std::cout << "reading: wider bursts raise the chance of touching a\n"
               "vulnerable high-order bit, so SDC grows with burst length —\n"
               "and double-bit bursts already defeat SEC-DED correction,\n"
               "strengthening the case for symptom-based detection.\n";
  return 0;
}
