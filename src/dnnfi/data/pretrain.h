// Pretrained-model cache: binds each zoo network to its dataset, trains it
// once (deterministically) if no cached model file exists, and hands out the
// spec + float weights that every experiment instantiates from.
#pragma once

#include <memory>
#include <vector>

#include "dnnfi/data/datasets.h"
#include "dnnfi/dnn/serialize.h"
#include "dnnfi/dnn/train.h"
#include "dnnfi/dnn/zoo.h"

namespace dnnfi::data {

/// Dataset seed used for all pretraining and all golden inputs. Train and
/// test examples are disjoint index ranges of the same generator.
inline constexpr std::uint64_t kDatasetSeed = 20170612;

/// Index where the held-out test split starts (train uses [0, this)).
inline constexpr std::uint64_t kTestSplitBegin = 1u << 20;

/// The dataset each paper network runs on.
std::unique_ptr<Dataset> dataset_for(dnn::zoo::NetworkId id);

/// The first `n` held-out test examples of `id`'s dataset (indices
/// kTestSplitBegin onward): the golden inputs campaigns run on. Draws them
/// serially on the calling thread.
std::vector<dnn::Example> test_examples(dnn::zoo::NetworkId id, std::size_t n);

/// Training recipe for `id` (epochs/count tuned per network).
dnn::TrainConfig train_config_for(dnn::zoo::NetworkId id);

/// An ExampleSource view over a dataset.
dnn::ExampleSource example_source(const Dataset& ds);

/// Returns the trained model for `id`, loading it from
/// `<model_dir>/<name>.dnnfi` when present, otherwise training it (can take
/// minutes) and saving it there. Thread-compatible: call from one thread.
dnn::Model pretrained(dnn::zoo::NetworkId id, bool verbose = false);

/// Top-1 accuracy of a model on `count` held-out test examples.
double test_accuracy(const dnn::Model& model, std::size_t count = 200);

}  // namespace dnnfi::data
