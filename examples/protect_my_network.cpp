// End-to-end protection recipe (§6): given a network and a deployment data
// type, (1) learn a symptom-based detector and measure its coverage, (2)
// size a selective latch-hardening plan for the datapath, and (3) report
// the protected FIT budget against ISO 26262.
//
// Build & run:  ./build/examples/protect_my_network

#include <iostream>

#include "dnnfi/common/env.h"
#include "dnnfi/common/table.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fit/fit.h"
#include "dnnfi/mitigate/sed.h"
#include "dnnfi/mitigate/slh.h"

int main() {
  using namespace dnnfi;
  const auto id = dnn::zoo::NetworkId::kAlexNetS;
  const auto dt = numeric::DType::kFloat16;
  const std::size_t n = default_samples(300);

  const dnn::Model model = data::pretrained(id);
  const auto ds = data::dataset_for(id);
  const dnn::ExampleSource source = [&ds](std::uint64_t i) {
    auto s = ds->sample(i);
    return dnn::Example{std::move(s.image), s.label};
  };
  const std::vector<dnn::Example> inputs = data::test_examples(id, 6);

  std::cout << "protecting " << dnn::zoo::network_name(id) << " deployed in "
            << numeric::dtype_name(dt) << " (n=" << n << ")\n\n";

  // Step 1 — SED: learn bounds on fault-free drives, then measure coverage.
  const auto detector = mitigate::learn_sed(model.spec, model.blob, dt, source, 0, 40);
  Table bounds("learned symptom bounds (10% cushion)");
  bounds.header({"layer", "lo", "hi"});
  for (std::size_t b = 0; b < detector.bounds().size(); ++b)
    bounds.row({std::to_string(b + 1), Table::num(detector.bounds()[b].lo, 3),
                Table::num(detector.bounds()[b].hi, 3)});
  bounds.print(std::cout);

  fault::Campaign campaign(model.spec, model.blob, dt, inputs);
  fault::CampaignOptions opt;
  opt.trials = n;
  opt.detector = detector.as_predicate();
  const auto r = campaign.run(opt);
  const auto ev = mitigate::evaluate_sed(r);
  std::cout << "SED on datapath faults: precision " << Table::pct(ev.precision.p)
            << ", recall " << Table::pct(ev.recall.p) << "\n\n";

  // Step 2 — SLH: per-bit sensitivity, then a 100x hardening plan.
  const int width = numeric::dtype_width(dt);
  mitigate::BitProfile profile(static_cast<std::size_t>(width), 0.0);
  for (int bit = 0; bit < width; ++bit) {
    fault::CampaignOptions bopt;
    bopt.trials = std::max<std::size_t>(60, n / 3);
    bopt.constraint.fixed_bit = bit;
    profile[static_cast<std::size_t>(bit)] = campaign.run(bopt).sdc1().p;
  }
  const auto plan = mitigate::harden_multi(profile, 100.0);
  std::cout << "SLH plan for 100x datapath FIT reduction: "
            << Table::pct(plan.area_overhead, 1) << " latch area overhead ("
            << (plan.feasible ? "feasible" : "INFEASIBLE") << ", achieved "
            << Table::num(plan.achieved_reduction, 1) << "x)\n";
  Table assign("per-bit hardening assignment (non-baseline bits)");
  assign.header({"bit", "design", "measured SDC"});
  for (int bit = width - 1; bit >= 0; --bit) {
    const auto d = plan.design_per_bit[static_cast<std::size_t>(bit)];
    if (d == 0) continue;
    assign.row({std::to_string(bit), mitigate::latch_designs()[d].name,
                Table::pct(profile[static_cast<std::size_t>(bit)])});
  }
  assign.print(std::cout);

  // Step 3 — the budget line.
  const auto cfg = accel::eyeriss_16nm();
  const double sdc = r.sdc1().p;
  const double caught = r.rate([](const fault::TrialRecord& t) {
                           return t.outcome.sdc1 && t.detected;
                         }).p;
  const double raw = fit::datapath_fit(dt, cfg.num_pes, sdc);
  const double with_sed = fit::datapath_fit(dt, cfg.num_pes,
                                            std::max(0.0, sdc - caught));
  const double with_both = with_sed / plan.achieved_reduction;
  Table budget("datapath FIT budget");
  budget.header({"configuration", "FIT", "vs 1.0-FIT accelerator allowance"});
  budget.row({"unprotected", Table::num(raw, 5), fit::iso_verdict(raw, 1.0)});
  budget.row({"SED", Table::num(with_sed, 5), fit::iso_verdict(with_sed, 1.0)});
  budget.row({"SED + SLH", Table::num(with_both, 6), fit::iso_verdict(with_both, 1.0)});
  budget.print(std::cout);
  return 0;
}
