// Design-space exploration with the FIT model (§6.1's design guidance):
// for a chosen network, sweep (a) the datapath data type and (b) the
// technology node, and report where the reliability budget goes. The
// output demonstrates the paper's two design rules:
//   * pick a data type with just-enough dynamic range (32b_rb26 over
//     32b_rb10 buys orders of magnitude of datapath FIT), and
//   * reuse buffers dominate the FIT budget and must be protected.
//
// Build & run:  ./build/examples/accelerator_design_explorer [network]
//   network: convnet | alexnet | caffenet | nin   (default alexnet)

#include <cstring>
#include <iostream>

#include "dnnfi/common/env.h"
#include "dnnfi/common/table.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fit/fit.h"

int main(int argc, char** argv) {
  using namespace dnnfi;
  using dnn::zoo::NetworkId;

  NetworkId id = NetworkId::kAlexNetS;
  if (argc > 1) {
    const std::string which = argv[1];
    if (which == "convnet") id = NetworkId::kConvNet;
    else if (which == "caffenet") id = NetworkId::kCaffeNetS;
    else if (which == "nin") id = NetworkId::kNiNS;
  }

  const dnn::Model model = data::pretrained(id);
  const std::vector<dnn::Example> inputs = data::test_examples(id, 6);
  const std::size_t n = default_samples(200);
  const auto fp = accel::analyze(model.spec);

  std::cout << "exploring accelerator designs for "
            << dnn::zoo::network_name(id) << " (n=" << n << "/cell)\n\n";

  // Sweep 1: datapath data type at the 16 nm node.
  const auto cfg16 = accel::eyeriss_16nm();
  Table types("datapath data-type sweep (16nm, " +
              std::string(dnn::zoo::network_name(id)) + ")");
  types.header({"dtype", "SDC-1", "datapath FIT", "note"});
  for (const auto dt : numeric::kAllDTypes) {
    fault::Campaign c(model.spec, model.blob, dt, inputs);
    fault::CampaignOptions opt;
    opt.trials = n;
    const double sdc = c.run(opt).sdc1().p;
    const double f = fit::datapath_fit(dt, cfg16.num_pes, sdc);
    std::string note;
    if (dt == numeric::DType::kFx32r10)
      note = "wide redundant range — avoid";
    else if (dt == numeric::DType::kFx32r26 || dt == numeric::DType::kFx16r10)
      note = "just-enough range — recommended";
    types.row({std::string(numeric::dtype_name(dt)), Table::pct(sdc),
               Table::num(f, 4), note});
  }
  types.print(std::cout);

  // Sweep 2: technology node at the 16-bit fixed point deployment.
  fault::Campaign c16(model.spec, model.blob, numeric::DType::kFx16r10, inputs);
  fault::CampaignOptions opt;
  opt.trials = n;
  const double dp_sdc = c16.run(opt).sdc1().p;
  std::vector<double> buf_sdc;
  for (const auto site : fault::kBufferSiteClasses) {
    fault::CampaignOptions bopt;
    bopt.trials = n;
    bopt.site = site;
    buf_sdc.push_back(c16.run(bopt).sdc1().p);
  }

  Table nodes("technology-node sweep (16b_rb10): FIT by component");
  nodes.header({"node", "PEs", "datapath", "Global Buffer", "Filter SRAM",
                "Img REG", "PSum REG", "total"});
  const int node_nm[] = {65, 40, 28, 20, 16};
  for (int g = 0; g <= 4; ++g) {
    auto cfg = accel::project(accel::eyeriss_65nm(), g);
    cfg.feature_nm = node_nm[g];
    std::vector<std::string> row = {std::to_string(cfg.feature_nm) + "nm",
                                    std::to_string(cfg.num_pes)};
    double total = fit::datapath_fit(numeric::DType::kFx16r10, cfg.num_pes, dp_sdc);
    row.push_back(Table::num(total, 4));
    for (std::size_t b = 0; b < fault::kBufferSiteClasses.size(); ++b) {
      const double f = fit::buffer_fit(
          fp, fault::buffer_of(fault::kBufferSiteClasses[b]), cfg, buf_sdc[b]);
      row.push_back(Table::num(f, 4));
      total += f;
    }
    row.push_back(Table::num(total, 3));
    nodes.row(row);
  }
  nodes.print(std::cout);

  std::cout << "design guidance (paper §6.1): restrict the data type's value\n"
               "range, protect reuse buffers (they dominate FIT as nodes\n"
               "shrink), and place detectors after normalization layers.\n";
  return 0;
}
