#include "dnnfi/data/pretrain.h"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>

#include "dnnfi/common/env.h"
#include "dnnfi/dnn/weights.h"

namespace dnnfi::data {

using dnn::zoo::NetworkId;

std::unique_ptr<Dataset> dataset_for(NetworkId id) {
  if (id == NetworkId::kConvNet)
    return std::make_unique<ShapesDataset>(kDatasetSeed);
  return std::make_unique<TexturesDataset>(kDatasetSeed);
}

std::vector<dnn::Example> test_examples(NetworkId id, std::size_t n) {
  const auto ds = dataset_for(id);
  std::vector<dnn::Example> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = ds->sample(kTestSplitBegin + i);
    v.push_back(dnn::Example{std::move(s.image), s.label});
  }
  return v;
}

dnn::TrainConfig train_config_for(NetworkId id) {
  dnn::TrainConfig cfg;
  cfg.seed = 7;
  switch (id) {
    case NetworkId::kConvNet:
      cfg.epochs = 4;
      cfg.train_count = 2000;
      cfg.learning_rate = 0.02;
      break;
    case NetworkId::kAlexNetS:
    case NetworkId::kCaffeNetS:
      cfg.epochs = 5;
      cfg.train_count = 3000;
      cfg.learning_rate = 0.02;
      break;
    case NetworkId::kNiNS:
      cfg.epochs = 5;
      cfg.train_count = 3000;
      cfg.learning_rate = 0.015;
      break;
  }
  return cfg;
}

dnn::ExampleSource example_source(const Dataset& ds) {
  return [&ds](std::uint64_t i) {
    Sample s = ds.sample(i);
    return dnn::Example{std::move(s.image), s.label};
  };
}

dnn::Model pretrained(NetworkId id, bool verbose) {
  const std::string dir = model_dir();
  const std::string path = dir + "/" + dnn::zoo::model_filename(id);
  // Two read attempts: a sibling process may be mid-save (save_model
  // publishes via tmp+rename, but slow shared filesystems can still
  // surface transient truncation), so one failed read earns a short pause
  // and a re-read before the expensive retrain fallback.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!dnn::is_model_file(path)) break;
    try {
      dnn::Model m = dnn::load_model(path);
      // Guard against stale caches: the spec on disk must match the code.
      if (m.spec == dnn::zoo::network_spec(id)) return m;
      std::cerr << "[dnnfi] cached model " << path
                << " does not match current topology; retraining\n";
      break;
    } catch (const std::exception& e) {
      // A magic match with a corrupt body (truncated copy, bad transfer)
      // must degrade to a deterministic retrain, not take the process down.
      if (attempt == 0) {
        std::cerr << "[dnnfi] cached model " << path << " is unreadable ("
                  << e.what() << "); retrying read once\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      } else {
        std::cerr << "[dnnfi] cached model " << path << " is unreadable ("
                  << e.what() << "); retraining\n";
      }
    }
  }

  const auto ds = dataset_for(id);
  dnn::TrainConfig cfg = train_config_for(id);
  cfg.verbose = verbose;

  dnn::Model m;
  m.spec = dnn::zoo::network_spec(id);
  dnn::Network<float> net(m.spec);
  dnn::init_weights(net, cfg.seed);
  // Hold out the test split by construction: training indices are
  // [0, train_count), far below kTestSplitBegin.
  dnn::train(net, example_source(*ds), cfg);
  m.blob = dnn::extract_weights(net);

  std::filesystem::create_directories(dir);
  dnn::save_model(path, m.spec, m.blob);
  return m;
}

double test_accuracy(const dnn::Model& model, std::size_t count) {
  dnn::Network<float> net = dnn::instantiate<float>(model.spec, model.blob);
  NetworkId id = NetworkId::kConvNet;
  for (const auto candidate : dnn::zoo::kAllNetworks) {
    if (dnn::zoo::network_name(candidate) == model.spec.name) id = candidate;
  }
  const auto ds = dataset_for(id);
  const auto r = dnn::evaluate(net, example_source(*ds), kTestSplitBegin, count);
  return r.accuracy;
}

}  // namespace dnnfi::data
