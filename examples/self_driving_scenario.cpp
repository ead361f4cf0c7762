// The paper's motivating scenario (Fig 2): a vision DNN classifying a
// stream of camera frames in a safety-critical loop. We run a frame stream
// through the accelerator model, strike a random subset of frames with
// single-event upsets, and report every silent misclassification — the
// "truck classified as bird" events — plus what the symptom-based detector
// would have caught before the planner consumed the result.
//
// Build & run:  ./build/examples/self_driving_scenario [frames]

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "dnnfi/common/rng.h"
#include "dnnfi/data/image_io.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/mitigate/sed.h"

int main(int argc, char** argv) {
  using namespace dnnfi;

  const std::size_t frames =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 200;
  const auto id = dnn::zoo::NetworkId::kConvNet;
  const dnn::Model model = data::pretrained(id);
  const auto ds = data::dataset_for(id);

  // Eyeriss stores 16-bit words; deploy in 16b_rb10 like the case study.
  using T = numeric::Fx16r10;
  const auto net = dnn::instantiate<T>(model.spec, model.blob);

  // SED learned offline from fault-free drives (training split).
  const auto detector = mitigate::learn_sed(
      model.spec, model.blob, numeric::DType::kFx16r10,
      [&ds](std::uint64_t i) {
        auto s = ds->sample(i);
        return dnn::Example{std::move(s.image), s.label};
      },
      0, 40);

  fault::Sampler sampler(model.spec, numeric::DType::kFx16r10);
  const auto ends = fault::block_end_layers(model.spec);

  // One compiled plan, one reusable workspace and one activation cache
  // (rebuilt in place per frame) drive the whole frame stream.
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());

  Rng strike_rng(42);
  std::size_t upsets = 0, sdcs = 0, detected_sdcs = 0, misclassified_clean = 0;
  std::filesystem::create_directories("results/frames");

  std::cout << "driving " << frames << " frames; soft-error strike "
            << "probability per frame: 5%\n\n";

  dnn::ActivationCache<T> cache;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto sample = ds->sample(data::kTestSplitBegin + 100 + f);
    cache.build(net.plan(), tensor::convert<T>(sample.image));
    const auto golden = net.interpret(cache.output());
    if (golden.top1() != sample.label) ++misclassified_clean;

    // Strike ~5% of frames, mixed over datapath and buffers.
    if (!strike_rng.bernoulli(0.05)) continue;
    ++upsets;
    const auto site =
        fault::kAllSiteClasses[strike_rng.below(fault::kAllSiteClasses.size())];
    const auto fault = sampler.sample(site, strike_rng);

    bool flagged = false;
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          const auto it = std::find(ends.begin(), ends.end(), layer);
          if (it == ends.end() || flagged) return;
          const int block = static_cast<int>(it - ends.begin()) + 1;
          flagged = detector.flags(block, act);
        };
    // Full replay (no early exit): the detector must see every block end
    // after the struck layer.
    const auto faulty = net.interpret(
        fault::inject(exec, ws, net.mac_layers(), cache, fault,
                      /*early_exit=*/false, /*replay=*/nullptr,
                      /*rec=*/nullptr, &observer));
    const auto outcome = fault::classify(golden, faulty);

    if (outcome.sdc1) {
      ++sdcs;
      detected_sdcs += flagged ? 1U : 0U;
      const std::string img_path =
          "results/frames/frame" + std::to_string(f) + "_sdc.ppm";
      data::write_ppm(img_path, sample.image);
      std::cout << "frame " << f << ": object '" << ds->class_name(golden.top1())
                << "' silently became '" << ds->class_name(faulty.top1())
                << "' (" << fault.describe() << ")\n"
                << "         SED: " << (flagged ? "DETECTED — frame dropped, brake path safe"
                                                : "MISSED — planner consumed bad label!")
                << "  [image: " << img_path << "]\n";
    }
  }

  std::cout << "\n=== drive summary ===\n"
            << "frames:                  " << frames << "\n"
            << "clean misclassifications:" << misclassified_clean << "\n"
            << "soft-error strikes:      " << upsets << "\n"
            << "silent data corruptions: " << sdcs << "\n"
            << "caught by SED:           " << detected_sdcs << "\n";
  if (sdcs > 0 && detected_sdcs == sdcs)
    std::cout << "every SDC was intercepted before the planner.\n";
  return 0;
}
