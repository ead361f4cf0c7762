// Figure 5 + the §5.1.3 value analysis: how corrupted ACT values relate to
// SDCs, for AlexNet under FLOAT16. The paper's findings to reproduce:
//   * errors causing large value deviations overwhelmingly become SDCs;
//   * erroneous values *outside* the network's fault-free per-layer range
//     are far more SDC-prone than in-range ones.
#include <algorithm>
#include <cmath>

#include "bench_util.h"

using namespace dnnfi;
using namespace dnnfi::benchutil;

int main() {
  const std::size_t n = samples() * 2;
  banner("Figure 5 — corrupted values vs outcome (AlexNet-S, FLOAT16)", n);

  const NetContext ctx = load_net(NetworkId::kAlexNetS);
  fault::Campaign campaign(ctx.model.spec, ctx.model.blob,
                           numeric::DType::kFloat16, ctx.inputs);
  fault::CampaignOptions opt;
  opt.trials = n;
  opt.seed = 31005;
  const auto r = campaign.run(opt);

  // Deviation-magnitude buckets of |act_after - act_before|.
  const double edges[] = {0.0, 1.0, 10.0, 100.0, 1000.0, 1e30};
  Table t("Fig 5: P(SDC-1 | ACT deviation magnitude) — AlexNet-S FLOAT16");
  t.header({"|deviation| bucket", "trials", "SDC-1 rate", "benign rate"});
  for (int b = 0; b < 5; ++b) {
    const double lo = edges[b], hi = edges[b + 1];
    const auto in_bucket = [lo, hi](const fault::TrialRecord& tr) {
      double d = std::abs(tr.record.act_after - tr.record.act_before);
      if (std::isnan(d)) d = 1e29;  // NaN outcomes count as huge deviations
      d = std::min(d, 1e29);
      return d >= lo && d < hi;
    };
    const auto est = r.rate_if(in_bucket, [](const fault::TrialRecord& tr) {
      return tr.outcome.sdc1;
    });
    // append() rather than "[" + str: GCC 12 raises a false -Wrestrict on
    // operator+(const char*, std::string&&).
    const std::string label = (b == 4) ? std::string(">=1000")
                                       : std::string("[")
                                             .append(Table::num(lo, 0))
                                             .append(", ")
                                             .append(Table::num(hi, 0))
                                             .append(")");
    t.row({label, std::to_string(est.n), Table::pct(est.p),
           Table::pct(1.0 - est.p)});
  }
  emit(t, "fig05_deviation_buckets");

  // Out-of-range analysis: compare corrupted ACTs against the fault-free
  // per-layer value ranges of the injected layer.
  const auto& ranges = campaign.golden_block_ranges();
  const auto out_of_range = [&ranges](const fault::TrialRecord& tr) {
    const auto& rg = ranges.at(static_cast<std::size_t>(tr.fault.block - 1));
    const double v = tr.record.act_after;
    return std::isnan(v) || v < rg.lo || v > rg.hi;
  };
  const auto sdc_pred = [](const fault::TrialRecord& tr) {
    return tr.outcome.sdc1;
  };
  const auto oor = r.rate_if(out_of_range, sdc_pred);
  const auto inr = r.rate_if(
      [&](const fault::TrialRecord& tr) { return !out_of_range(tr); }, sdc_pred);
  // Conditional the other way: of SDC-causing (resp. benign) errors, how
  // many produced out-of-range values (paper: 80% vs 9.67% for AlexNet).
  const auto sdc_oor = r.rate_if(sdc_pred, out_of_range);
  const auto benign_oor = r.rate_if(
      [](const fault::TrialRecord& tr) { return !tr.outcome.sdc1; },
      out_of_range);

  Table t2("Fig 5 / §5.1.3: out-of-range corrupted ACTs vs outcome");
  t2.header({"metric", "value"});
  t2.row({"P(SDC | corrupted ACT out of fault-free range)", Table::pct(oor.p)});
  t2.row({"P(SDC | corrupted ACT within range)", Table::pct(inr.p)});
  t2.row({"P(out-of-range | SDC)   [paper: ~80%]", Table::pct(sdc_oor.p)});
  t2.row({"P(out-of-range | benign) [paper: ~9.67%]", Table::pct(benign_oor.p)});
  emit(t2, "fig05_out_of_range");
  return 0;
}
