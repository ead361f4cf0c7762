// Pretrained-model regression tests: the cached zoo models must load, match
// their specs, genuinely classify their datasets, and behave identically
// across deployments, and retraining ConvNet reproduces its cached file
// byte for byte. Skipped when the model cache has not been built yet (run
// tools/train_models first).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/weights.h"

#ifndef DNNFI_REPO_MODELS
#define DNNFI_REPO_MODELS "models"
#endif

namespace dnnfi {
namespace {

using dnn::zoo::NetworkId;

class PretrainedTest : public ::testing::TestWithParam<NetworkId> {
 protected:
  void SetUp() override {
    ::setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    const std::string path = std::string(DNNFI_REPO_MODELS) + "/" +
                             dnn::zoo::model_filename(GetParam());
    if (!dnn::is_model_file(path))
      GTEST_SKIP() << "model cache missing: " << path
                   << " (run tools/train_models)";
  }
};

TEST_P(PretrainedTest, SpecOnDiskMatchesCode) {
  const dnn::Model m = data::pretrained(GetParam());
  EXPECT_EQ(m.spec, dnn::zoo::network_spec(GetParam()));
  EXPECT_EQ(m.blob.layers.size(),
            dnn::Network<float>(m.spec).mac_layers().size());
}

TEST_P(PretrainedTest, ClassifiesWellAboveChance) {
  const dnn::Model m = data::pretrained(GetParam());
  const double acc = data::test_accuracy(m, 100);
  const auto ds = data::dataset_for(GetParam());
  const double chance = 1.0 / static_cast<double>(ds->num_classes());
  EXPECT_GT(acc, 5.0 * chance) << "accuracy " << acc;
  // ConvNet on the 10-class shapes dataset should be near-perfect.
  if (GetParam() == NetworkId::kConvNet) {
    EXPECT_GT(acc, 0.9);
  }
}

TEST_P(PretrainedTest, QuantizedDeploymentsAgreeOnConfidentInputs) {
  const dnn::Model m = data::pretrained(GetParam());
  const auto ds = data::dataset_for(GetParam());
  const auto net32 = dnn::instantiate<float>(m.spec, m.blob);
  const auto net16 = dnn::instantiate<numeric::Half>(m.spec, m.blob);

  std::size_t checked = 0, agree = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto s = ds->sample(data::kTestSplitBegin + i);
    const auto p32 = net32.classify(tensor::convert<float>(s.image));
    // Only compare on confident predictions; near-ties may legitimately
    // flip under binary16 rounding.
    const auto top2 = p32.topk(2);
    if (p32.scores[top2[0]] < 1.5 * std::abs(p32.scores[top2[1]]) + 0.05)
      continue;
    const auto p16 = net16.classify(tensor::convert<numeric::Half>(s.image));
    ++checked;
    agree += (p16.top1() == p32.top1()) ? 1U : 0U;
  }
  if (checked >= 5) {
    EXPECT_GE(static_cast<double>(agree) / static_cast<double>(checked), 0.9);
  }
}

TEST_P(PretrainedTest, GoldenPredictionIsDeterministic) {
  const dnn::Model m = data::pretrained(GetParam());
  const auto ds = data::dataset_for(GetParam());
  const auto net = dnn::instantiate<numeric::Fx16r10>(m.spec, m.blob);
  const auto img = tensor::convert<numeric::Fx16r10>(
      ds->sample(data::kTestSplitBegin).image);
  const auto a = net.forward(img);
  const auto b = net.forward(img);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].raw(), b[i].raw());
}

std::vector<char> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Retraining into an empty model directory reproduces the checked-in
// ConvNet file byte for byte: the trainer's forward (the network's plan, on
// whichever kernel set is active), backward, loss and lane reduction are
// pinned to the code that produced models/convnet.dnnfi.
TEST(PretrainedRetrain, ConvNetRetrainsToTheCheckedInBytes) {
  const std::filesystem::path want =
      std::filesystem::path(DNNFI_REPO_MODELS) /
      dnn::zoo::model_filename(NetworkId::kConvNet);
  if (!dnn::is_model_file(want.string()))
    GTEST_SKIP() << "model cache missing: " << want;
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "dnnfi-retrain-XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::filesystem::path dir = tmpl;
  ::setenv("DNNFI_MODEL_DIR", dir.c_str(), 1);
  data::pretrained(NetworkId::kConvNet);
  const std::vector<char> got =
      file_bytes(dir / dnn::zoo::model_filename(NetworkId::kConvNet));
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(got.empty());
  EXPECT_TRUE(got == file_bytes(want)) << "retrained " << got.size()
                                       << " bytes differ from " << want;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PretrainedTest,
                         ::testing::ValuesIn(dnn::zoo::kAllNetworks),
                         [](const auto& param_info) {
                           std::string n(
                               dnn::zoo::network_name(param_info.param));
                           std::erase(n, '-');
                           return n;
                         });

}  // namespace
}  // namespace dnnfi
