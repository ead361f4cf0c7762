// Shared helpers for the experiment harnesses in bench/. Each bench binary
// regenerates one table or figure of the paper; these helpers centralize
// model loading, held-out input selection, and output conventions.
//
// Environment knobs (all optional):
//   DNNFI_SAMPLES    injections per campaign cell (paper used 3,000)
//   DNNFI_THREADS    compute threads for campaigns, the calling one included
//   DNNFI_MODEL_DIR  pretrained model cache (default "models")
//   DNNFI_RESULTS    CSV output directory (default "results")
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "dnnfi/common/env.h"
#include "dnnfi/common/table.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/fault/campaign.h"

namespace dnnfi::benchutil {

using dnn::zoo::NetworkId;

/// A loaded network with its held-out evaluation inputs.
struct NetContext {
  NetworkId id;
  std::string name;
  dnn::Model model;
  std::vector<dnn::Example> inputs;
};

/// Loads (training on first use) the model for `id` plus `num_inputs`
/// held-out test images.
inline NetContext load_net(NetworkId id, std::size_t num_inputs = 8) {
  NetContext ctx;
  ctx.id = id;
  ctx.name = std::string(dnn::zoo::network_name(id));
  ctx.model = data::pretrained(id);
  ctx.inputs = data::test_examples(id, num_inputs);
  return ctx;
}

/// Example source over the training split of `id`'s dataset (for SED
/// learning and value-range profiling).
inline dnn::ExampleSource train_source(NetworkId id) {
  auto ds = std::shared_ptr<data::Dataset>(data::dataset_for(id));
  return [ds](std::uint64_t i) {
    auto s = ds->sample(i);
    return dnn::Example{std::move(s.image), s.label};
  };
}

/// Runs the whole campaign through the streaming shard path and returns the
/// aggregates. The bench default: memory stays flat in trial count, and the
/// result is bit-identical to any sharded execution of the same options.
/// Reach for Campaign::run only when per-trial records are genuinely needed.
inline fault::OutcomeAccumulator run_streaming(const fault::Campaign& campaign,
                                               const fault::CampaignOptions& opt) {
  return campaign.run_shard(opt, fault::ShardSpec{}).acc;
}

/// Campaign cell size. The paper used 3,000 injections per latch/component;
/// the default here targets a single-core machine. Print `n` with results.
inline std::size_t samples(std::size_t fallback = 300) {
  return default_samples(fallback);
}

/// Where CSVs go.
inline std::string results_dir() {
  return env_string("DNNFI_RESULTS").value_or("results");
}

/// Prints the table and writes its CSV twin.
inline void emit(const Table& t, const std::string& stem) {
  t.print(std::cout);
  const std::string path = t.write_csv(results_dir(), stem);
  std::cout << "[csv] " << path << "\n\n";
}

/// Standard bench banner.
inline void banner(const std::string& what, std::size_t n) {
  std::cout << "dnnfi bench: " << what << "\n"
            << "injections per cell: " << n
            << " (paper: 3000; set DNNFI_SAMPLES to change)\n\n";
}

}  // namespace dnnfi::benchutil
