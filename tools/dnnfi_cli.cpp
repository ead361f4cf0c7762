// dnnfi command-line fault-injection runner.
//
// Subcommands:
//   campaign  --network <name> --dtype <name> [--site <name>] [--trials N]
//             [--seed S] [--bit B] [--layer L] [--storage <dtype>]
//             Runs an injection campaign and prints SDC statistics.
//   profile   --network <name> --dtype <name> [--count N]
//             Prints fault-free per-layer value ranges (SED learning data).
//   inject    --network <name> --dtype <name> [--seed S]
//             Runs a single injection and narrates what happened.
//   info      --network <name>
//             Prints topology, MACs, weights, and buffer footprints.
//
// Networks: convnet | alexnet | caffenet | nin
// DTypes:   DOUBLE | FLOAT | FLOAT16 | 32b_rb26 | 32b_rb10 | 16b_rb10
// Sites:    datapath | global-buffer | filter-sram | img-reg | psum-reg
// Accels:   eyeriss (default) | systolic:<rows>x<cols>
// Fault ops: toggle (default) | toggle:<n> | set0[:<n>|:0x<mask>] | set1[...]

#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "dnnfi/common/env.h"
#include "dnnfi/common/table.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fit/fit.h"
#include "cli_number.h"

namespace {

using namespace dnnfi;
using dnn::zoo::NetworkId;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n\n"
            << "usage: dnnfi <campaign|profile|inject|info> --network <name> "
               "[--dtype <name>] [options]\n"
               "  networks: convnet alexnet caffenet nin\n"
               "  dtypes:   DOUBLE FLOAT FLOAT16 32b_rb26 32b_rb10 16b_rb10\n"
               "  sites:    datapath global-buffer filter-sram img-reg psum-reg\n"
               "  accels:   eyeriss systolic:<rows>x<cols>\n"
               "  fault ops: toggle toggle:<n> set0 set1 set0:0x<mask> ...\n"
               "  options:  --trials N --seed S --bit B --layer L --count N "
               "--storage <dtype> --accel <geom> --fault-op <op>\n";
  std::exit(2);
}

/// A numeric flag value; usage() (exit 2) when `val` is not one.
template <typename N>
N number(const std::string& key, const std::string& val) {
  return cli::number<N>(key, val, usage);
}

NetworkId parse_network(const std::string& s) {
  if (s == "convnet") return NetworkId::kConvNet;
  if (s == "alexnet") return NetworkId::kAlexNetS;
  if (s == "caffenet") return NetworkId::kCaffeNetS;
  if (s == "nin") return NetworkId::kNiNS;
  usage("unknown network");
}

numeric::DType parse_dtype(const std::string& s) {
  for (const auto t : numeric::kAllDTypes)
    if (s == numeric::dtype_name(t)) return t;
  usage("unknown dtype");
}

fault::SiteClass parse_site(const std::string& s) {
  for (const auto c : fault::kAllSiteClasses)
    if (s == fault::site_class_name(c)) return c;
  usage("unknown site");
}

struct Args {
  std::string command;
  NetworkId network = NetworkId::kConvNet;
  numeric::DType dtype = numeric::DType::kFloat16;
  fault::SiteClass site = fault::SiteClass::kDatapathLatch;
  std::size_t trials = 300;
  std::uint64_t seed = 1;
  std::size_t count = 20;
  std::optional<int> bit;
  std::optional<int> layer;
  std::optional<numeric::DType> storage;
  accel::AcceleratorConfig accel;
  fault::FaultOpSpec fault_op;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  bool have_network = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--network") {
      a.network = parse_network(val);
      have_network = true;
    } else if (key == "--dtype") {
      a.dtype = parse_dtype(val);
    } else if (key == "--site") {
      a.site = parse_site(val);
    } else if (key == "--trials") {
      a.trials = number<std::size_t>(key, val);
    } else if (key == "--seed") {
      a.seed = number<std::uint64_t>(key, val);
    } else if (key == "--count") {
      a.count = number<std::size_t>(key, val);
    } else if (key == "--bit") {
      a.bit = number<int>(key, val);
    } else if (key == "--layer") {
      a.layer = number<int>(key, val);
    } else if (key == "--storage") {
      a.storage = parse_dtype(val);
    } else if (key == "--accel") {
      const auto cfg = accel::parse_accelerator(val);
      if (!cfg) usage("bad --accel (want eyeriss or systolic:<rows>x<cols>)");
      a.accel = *cfg;
    } else if (key == "--fault-op") {
      const auto spec = fault::FaultOpSpec::parse(val);
      if (!spec) usage("bad --fault-op (want toggle|set0|set1[:<n>|:0x<mask>])");
      a.fault_op = *spec;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!have_network) usage("--network is required");
  if (!accel::make_accelerator(a.accel)->supports(a.site))
    usage("site " + std::string(fault::site_class_name(a.site)) +
          " is not in the " + a.accel.to_string() + " site inventory");
  return a;
}

std::vector<dnn::Example> test_inputs(NetworkId id, std::size_t n) {
  const auto ds = data::dataset_for(id);
  std::vector<dnn::Example> v;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = ds->sample(data::kTestSplitBegin + i);
    v.push_back(dnn::Example{std::move(s.image), s.label});
  }
  return v;
}

int cmd_campaign(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  fault::Campaign c(m.spec, m.blob, a.dtype, test_inputs(a.network, 8));
  fault::CampaignOptions opt;
  opt.trials = a.trials;
  opt.seed = a.seed;
  opt.site = a.site;
  opt.constraint.fixed_bit = a.bit;
  opt.constraint.fixed_block = a.layer;
  opt.constraint.buffer_storage = a.storage;
  opt.constraint.op_kind = a.fault_op.kind;
  opt.constraint.burst = a.fault_op.burst;
  opt.constraint.op_pattern = a.fault_op.pattern;
  opt.accel = a.accel;
  const auto r = c.run(opt);

  Table t("campaign: " + std::string(dnn::zoo::network_name(a.network)) + " " +
          std::string(numeric::dtype_name(a.dtype)) + " " +
          fault::site_class_name(a.site) + " n=" + std::to_string(a.trials));
  t.header({"metric", "value"});
  const auto row = [&t](const char* name, const fault::Estimate& e) {
    t.row({name, Table::pct_ci(e.p, e.ci95) + " (" + std::to_string(e.hits) +
                     "/" + std::to_string(e.n) + ")"});
  };
  row("SDC-1", r.sdc1());
  row("SDC-5", r.sdc5());
  row("SDC-10%", r.sdc10());
  row("SDC-20%", r.sdc20());
  row("reached output", r.rate([](const fault::TrialRecord& tr) {
        return tr.output_corruption > 0;
      }));
  t.print(std::cout);

  if (a.accel.is_eyeriss()) {
    const auto cfg = accel::eyeriss_16nm();
    double f;
    if (a.site == fault::SiteClass::kDatapathLatch) {
      f = fit::datapath_fit(a.dtype, cfg.num_pes, r.sdc1().p);
    } else {
      f = fit::buffer_fit(accel::analyze(m.spec), fault::buffer_of(a.site),
                          cfg, r.sdc1().p);
    }
    std::cout << "Eyeriss-16nm FIT for this component: " << f << "\n";
  } else if (a.site == fault::SiteClass::kDatapathLatch) {
    // Buffer FIT needs a per-buffer bit inventory, which only the Eyeriss
    // config carries; datapath FIT scales with the PE count alone.
    const double f = fit::datapath_fit(
        a.dtype, accel::make_accelerator(a.accel)->num_pes(), r.sdc1().p);
    std::cout << a.accel.to_string() << " datapath FIT (16nm latch rate): "
              << f << "\n";
  }
  return 0;
}

int cmd_profile(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  const auto ds = data::dataset_for(a.network);
  const auto ranges = fault::profile_block_ranges(
      m.spec, m.blob, a.dtype,
      [&ds](std::uint64_t i) {
        auto s = ds->sample(i);
        return dnn::Example{std::move(s.image), s.label};
      },
      0, a.count);
  Table t("fault-free value ranges: " +
          std::string(dnn::zoo::network_name(a.network)) + " " +
          std::string(numeric::dtype_name(a.dtype)));
  t.header({"layer", "min", "max"});
  for (std::size_t b = 0; b < ranges.size(); ++b)
    t.row({std::to_string(b + 1), Table::num(ranges[b].lo, 4),
           Table::num(ranges[b].hi, 4)});
  t.print(std::cout);
  return 0;
}

int cmd_inject(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  fault::Campaign c(m.spec, m.blob, a.dtype, test_inputs(a.network, 1));
  fault::CampaignOptions opt;
  opt.trials = 1;
  opt.seed = a.seed;
  opt.site = a.site;
  opt.constraint.fixed_bit = a.bit;
  opt.constraint.fixed_block = a.layer;
  opt.constraint.buffer_storage = a.storage;
  opt.constraint.op_kind = a.fault_op.kind;
  opt.constraint.burst = a.fault_op.burst;
  opt.constraint.op_pattern = a.fault_op.pattern;
  opt.accel = a.accel;
  const auto r = c.run(opt);
  const auto& tr = r.trials.front();
  std::cout << "fault:   " << tr.fault.describe() << "\n"
            << "value:   " << tr.record.corrupted_before << " -> "
            << tr.record.corrupted_after
            << (tr.record.zero_to_one ? "  (bit 0->1)" : "  (bit 1->0)") << "\n"
            << "outcome: "
            << (tr.outcome.sdc1 ? "SDC-1" : "benign/masked")
            << (tr.outcome.sdc5 ? " SDC-5" : "")
            << (tr.outcome.sdc10 ? " SDC-10%" : "")
            << (tr.outcome.sdc20 ? " SDC-20%" : "") << "\n"
            << "output corruption: " << tr.output_corruption * 100 << "% of final ACTs\n";
  return 0;
}

int cmd_info(const Args& a) {
  const dnn::Model m = data::pretrained(a.network);
  const auto fp = accel::analyze(m.spec);
  std::cout << "network: " << m.spec.name << "\n"
            << "input:   " << m.spec.input.c << "x" << m.spec.input.h << "x"
            << m.spec.input.w << ", classes " << m.spec.num_classes << "\n"
            << "logical layers: " << m.spec.num_blocks() << "\n";
  Table t("MAC-layer footprints");
  t.header({"layer", "kind", "in elems", "weights", "out elems", "MACs"});
  for (const auto& f : fp)
    t.row({std::to_string(f.block), f.is_conv ? "conv" : "fc",
           std::to_string(f.input_elems), std::to_string(f.weight_elems),
           std::to_string(f.output_elems), std::to_string(f.macs)});
  t.print(std::cout);
  std::cout << "total MACs: " << accel::total_macs(fp) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.command == "campaign") return cmd_campaign(a);
    if (a.command == "profile") return cmd_profile(a);
    if (a.command == "inject") return cmd_inject(a);
    if (a.command == "info") return cmd_info(a);
    usage("unknown command");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
