// Headline bench for the pluggable-geometry fault model (DESIGN.md §11):
// the same campaign machinery swept across two accelerator geometries
// (the paper's Eyeriss hierarchy vs a TPU-style weight-stationary 16x16
// systolic array) and four fault operations (single-bit toggle, stuck-at-0,
// stuck-at-1, and a 2-bit toggle mask) on AlexNet-S FLOAT16, at the two
// site classes both geometries implement (datapath latches and PSum REGs).
//
// Before reporting rates, the systolic column-propagation law is validated
// at campaign scale: for a sweep of sampled PSum strikes, the struck
// layer's faulty output may differ from the golden trace ONLY at elements
// downstream of the struck column (e >= first_out with channel(e) % cols
// == col) — the same law tests/test_accel_systolic.cpp locks at unit
// scale. Any violation aborts the bench.
//
// Writes BENCH_accel_geometry.json into the results directory.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dnnfi/common/atomic_file.h"
#include "dnnfi/fault/injector.h"

using namespace dnnfi;
using namespace dnnfi::benchutil;

namespace {

struct Cell {
  std::string accel;
  std::string fault_op;
  std::string site;
  fault::Estimate sdc1;
};

/// Column-law validation: `trials` sampled PSum strikes on the systolic
/// geometry, each checked at the struck layer's output against the
/// footprint predicted by the ColumnFault lowering. Returns the number of
/// violating trials (elements corrupted outside the predicted footprint).
std::size_t validate_column_law(const NetContext& ctx,
                                const accel::AcceleratorModel& model,
                                const fault::FaultOpSpec& op,
                                std::size_t trials, std::uint64_t seed) {
  using Half = numeric::Half;
  using Tr = numeric::numeric_traits<Half>;
  dnn::Network<Half> net(ctx.model.spec);
  dnn::load_weights(net, ctx.model.blob);
  const tensor::Tensor<Half> img =
      tensor::convert<Half>(ctx.inputs.front().image);
  const dnn::ActivationCache<Half> golden(net.plan(), img);
  const dnn::Executor<Half> exec(net.plan());
  dnn::Workspace<Half> ws(net.plan());

  const fault::Sampler sampler(ctx.model.spec, numeric::DType::kFloat16,
                               model);
  fault::SampleConstraint sc;
  sc.op = op;

  std::size_t violations = 0;
  Rng rng(seed);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto f = sampler.sample(fault::SiteClass::kPsumReg, rng, sc);
    const auto af = fault::lower(f, net.mac_layers(), model);
    DNNFI_EXPECTS(af.faults.column.has_value());
    const auto& cf = *af.faults.column;

    bool violated = false;
    const dnn::LayerObserver<Half> observer =
        [&](std::size_t layer, tensor::ConstTensorView<Half> out) {
          if (layer != af.layer) return;
          const auto ref = golden.act(layer);
          const auto& os = ref.shape();
          const std::size_t plane = os.c > 1 ? os.h * os.w : 1;
          for (std::size_t e = 0; e < ref.size(); ++e) {
            if (Tr::to_bits(out[e]) == Tr::to_bits(ref[e])) continue;
            const bool in_footprint =
                e >= cf.first_out && (e / plane) % cf.cols == cf.col;
            if (!in_footprint) violated = true;
          }
        };
    dnn::RunRequest<Half> req;
    req.cache = &golden;
    req.fault = &af;
    req.observer = &observer;
    req.early_exit = true;  // only the struck layer's output is checked
    (void)exec.run(ws, req);
    if (violated) {
      std::cerr << "column-law violation: " << f.describe() << "\n";
      ++violations;
    }
  }
  return violations;
}

void write_json(const std::vector<Cell>& cells, std::size_t trials,
                std::size_t law_trials, std::size_t law_violations,
                const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"network\": \"alexnet-s\",\n  \"dtype\": \"FLOAT16\",\n"
      << "  \"trials_per_cell\": " << trials << ",\n"
      << "  \"column_law\": {\"trials\": " << law_trials
      << ", \"violations\": " << law_violations << "},\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"accel\": \"" << c.accel << "\", \"fault_op\": \""
        << c.fault_op << "\", \"site\": \"" << c.site
        << "\", \"sdc1\": " << c.sdc1.p << ", \"ci95\": " << c.sdc1.ci95
        << ", \"hits\": " << c.sdc1.hits << ", \"n\": " << c.sdc1.n << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!write_file_atomic(path, out.str()))
    std::cerr << "warning: could not write " << path << "\n";
}

}  // namespace

int main() {
  const std::size_t n = samples();
  banner("accelerator geometry x fault-op sweep, AlexNet-S FLOAT16", n);

  const NetContext ctx = load_net(NetworkId::kAlexNetS);
  fault::Campaign campaign(ctx.model.spec, ctx.model.blob,
                           numeric::DType::kFloat16, ctx.inputs);

  const std::vector<std::string> geometries = {"eyeriss", "systolic:16x16"};
  // Single-bit toggle (the paper's SEU), both stuck-at polarities, and a
  // 2-bit toggle mask exercising the arbitrary-pattern path.
  const std::vector<std::string> ops = {"toggle", "set0", "set1",
                                        "toggle:0x3"};

  // Gate: the column-propagation law must hold at campaign scale before any
  // rate is reported, for every fault op in the sweep.
  {
    const auto cfg = accel::parse_accelerator("systolic:16x16");
    const auto model = accel::make_accelerator(*cfg);
    const std::size_t law_n = std::min<std::size_t>(n, 200);
    std::size_t total = 0, bad = 0;
    for (const auto& op : ops) {
      const auto spec = fault::FaultOpSpec::parse(op);
      bad += validate_column_law(ctx, *model, *spec, law_n, 0xC01 + total);
      total += law_n;
    }
    std::cout << "column-propagation law: " << total << " sampled psum "
              << "strikes, " << bad << " violations\n\n";
    if (bad != 0) {
      std::cerr << "FATAL: systolic column-propagation law violated\n";
      return 1;
    }
  }

  std::vector<Cell> cells;
  std::size_t law_trials_total = ops.size() * std::min<std::size_t>(n, 200);
  for (const auto& geom : geometries) {
    const auto cfg = accel::parse_accelerator(geom);
    Table t("geometry " + geom + " (n=" + std::to_string(n) + "/cell)");
    t.header({"fault op", "datapath SDC-1", "psum-reg SDC-1"});
    for (const auto& op : ops) {
      const auto spec = fault::FaultOpSpec::parse(op);
      fault::CampaignOptions dp;
      dp.trials = n;
      dp.seed = 20170814;
      dp.accel = *cfg;
      dp.constraint.op = *spec;
      const auto e_dp = run_streaming(campaign, dp).sdc1();
      cells.push_back({geom, spec->to_string(), "datapath", e_dp});

      fault::CampaignOptions ps = dp;
      ps.site = fault::SiteClass::kPsumReg;
      const auto e_ps = run_streaming(campaign, ps).sdc1();
      cells.push_back({geom, spec->to_string(), "psum-reg", e_ps});

      t.row({spec->to_string(), Table::pct_ci(e_dp.p, e_dp.ci95),
             Table::pct_ci(e_ps.p, e_ps.ci95)});
    }
    emit(t, "BENCH_accel_geometry_" + (cfg->is_eyeriss()
                                           ? std::string("eyeriss")
                                           : std::string("systolic")));
  }

  std::filesystem::create_directories(results_dir());
  const std::string json = results_dir() + "/BENCH_accel_geometry.json";
  write_json(cells, n, law_trials_total, 0, json);
  std::cout << "[json] " << json << "\n";

  std::cout << "reading: a systolic psum strike taints every output still\n"
               "flowing through its column, so psum-reg SDC is far higher\n"
               "than Eyeriss's single-element PSum REG model; stuck-at ops\n"
               "bound the toggle rates (set1 forces high bits on, set0 can\n"
               "only shrink magnitudes).\n";
  return 0;
}
