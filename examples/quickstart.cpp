// Quickstart: the core dnnfi workflow in ~60 lines.
//
//   1. load a pretrained network (trains + caches on first run),
//   2. run a clean inference,
//   3. inject one single-bit fault into the accelerator datapath,
//   4. compare outcomes and classify the result.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "dnnfi/common/rng.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"

int main() {
  using namespace dnnfi;

  // 1. Pretrained ConvNet (CIFAR-10-class topology on the shapes dataset),
  //    deployed in the FLOAT16 datapath type.
  const dnn::Model model = data::pretrained(dnn::zoo::NetworkId::kConvNet);
  const auto net = dnn::instantiate<numeric::Half>(model.spec, model.blob);
  std::cout << "network: " << net.name() << " (" << net.total_macs()
            << " MACs, " << net.total_weights() << " weights)\n";

  // 2. Clean inference on a held-out image.
  const auto ds = data::dataset_for(dnn::zoo::NetworkId::kConvNet);
  const auto sample = ds->sample(data::kTestSplitBegin + 3);
  const auto input = tensor::convert<numeric::Half>(sample.image);
  const dnn::ActivationCache<numeric::Half> cache(net.plan(), input);
  const auto golden = net.interpret(cache.output());
  std::cout << "clean prediction:  " << ds->class_name(golden.top1())
            << " (confidence " << golden.top1_score() << ", truth "
            << ds->class_name(sample.label) << ")\n";

  // 3. One single-event upset in a PE's accumulator latch, at a random
  //    point of the execution.
  fault::Sampler sampler(model.spec, numeric::DType::kFloat16);
  Rng rng(/*seed=*/2017);
  const auto fault = sampler.sample(fault::SiteClass::kDatapathLatch, rng);
  std::cout << "injecting: " << fault.describe() << "\n";

  //    Only the struck layer and the layers after it re-execute, seeded
  //    from the cached fault-free activations.
  const dnn::Executor<numeric::Half> exec(net.plan());
  dnn::Workspace<numeric::Half> ws(net.plan());
  dnn::InjectionRecord record;
  const auto faulty = net.interpret(
      fault::inject(exec, ws, net.mac_layers(), cache, fault,
                    /*early_exit=*/true, /*replay=*/nullptr, &record));
  std::cout << "corrupted latch value: " << record.corrupted_before << " -> "
            << record.corrupted_after << "\n";

  // 4. Outcome classification per the paper's SDC criteria.
  const auto outcome = fault::classify(golden, faulty);
  std::cout << "faulty prediction: " << ds->class_name(faulty.top1())
            << " (confidence " << faulty.top1_score() << ")\n"
            << "outcome: " << (outcome.sdc1 ? "SDC-1 (top-1 flipped!)" : "masked/benign")
            << (outcome.sdc5 ? ", SDC-5" : "")
            << (outcome.sdc10 ? ", SDC-10%" : "")
            << (outcome.sdc20 ? ", SDC-20%" : "") << "\n";
  return 0;
}
