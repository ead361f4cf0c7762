// Synthetic dataset properties and PPM IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "dnnfi/data/datasets.h"
#include "dnnfi/data/image_io.h"
#include "dnnfi/data/pretrain.h"

namespace dnnfi::data {
namespace {

TEST(Shapes, DeterministicPerIndex) {
  ShapesDataset ds(1);
  const auto a = ds.sample(123);
  const auto b = ds.sample(123);
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.image.size(), b.image.size());
  for (std::size_t i = 0; i < a.image.size(); ++i)
    EXPECT_EQ(a.image[i], b.image[i]);
}

TEST(Shapes, DifferentIndicesDiffer) {
  ShapesDataset ds(1);
  const auto a = ds.sample(0);
  const auto b = ds.sample(10);  // same class (label 0), different instance
  EXPECT_EQ(a.label, b.label);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.image.size(); ++i)
    diffs += (a.image[i] != b.image[i]) ? 1U : 0U;
  EXPECT_GT(diffs, a.image.size() / 2);
}

TEST(Shapes, LabelsBalancedRoundRobin) {
  ShapesDataset ds(1);
  for (std::uint64_t i = 0; i < 30; ++i)
    EXPECT_EQ(ds.sample(i).label, i % 10);
}

TEST(Shapes, PixelsInExpectedRange) {
  ShapesDataset ds(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto s = ds.sample(i);
    for (std::size_t p = 0; p < s.image.size(); ++p) {
      ASSERT_GT(s.image[p], -2.0F);
      ASSERT_LT(s.image[p], 2.5F);
    }
  }
}

TEST(Shapes, ClassNamesDistinct) {
  ShapesDataset ds(1);
  std::set<std::string> names;
  for (std::size_t c = 0; c < 10; ++c) names.insert(ds.class_name(c));
  EXPECT_EQ(names.size(), 10U);
  EXPECT_THROW(ds.class_name(10), ContractViolation);
}

TEST(Textures, HundredClassesRoundRobin) {
  TexturesDataset ds(3);
  EXPECT_EQ(ds.num_classes(), 100U);
  EXPECT_EQ(ds.sample(205).label, 5U);
  EXPECT_EQ(ds.image_shape(), tensor::chw(3, 48, 48));
}

TEST(Textures, ClassesAreVisuallyDistinct) {
  // Images of the same class (different instances) must correlate more than
  // images of different classes — the separability that training relies on.
  TexturesDataset ds(3);
  auto corr = [](const tensor::Tensor<float>& a, const tensor::Tensor<float>& b) {
    double num = 0, da = 0, db = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      num += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      da += static_cast<double>(a[i]) * static_cast<double>(a[i]);
      db += static_cast<double>(b[i]) * static_cast<double>(b[i]);
    }
    return num / std::sqrt(da * db);
  };
  const auto a1 = ds.sample(7).image;    // class 7
  const auto a2 = ds.sample(107).image;  // class 7 again
  const auto b1 = ds.sample(57).image;   // class 57 (different freq+orient)
  EXPECT_GT(std::abs(corr(a1, a2)), std::abs(corr(a1, b1)));
}

TEST(Textures, SeedChangesInstances) {
  TexturesDataset a(1), b(2);
  const auto sa = a.sample(0).image;
  const auto sb = b.sample(0).image;
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < sa.size(); ++i)
    diffs += (sa[i] != sb[i]) ? 1U : 0U;
  EXPECT_GT(diffs, sa.size() / 2);
}

TEST(Ppm, RoundTripsImage) {
  ShapesDataset ds(4);
  const auto img = ds.sample(3).image;
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnfi_test.ppm").string();
  write_ppm(path, img);
  const auto back = read_ppm(path);
  ASSERT_EQ(back.shape(), img.shape());
  // 8-bit quantization: tolerance of one level.
  for (std::size_t i = 0; i < img.size(); ++i) {
    const float clamped = std::clamp(img[i], -1.0F, 1.0F);
    EXPECT_NEAR(back[i], clamped, 2.0F / 255.0F + 1e-4F);
  }
  std::remove(path.c_str());
}

TEST(Ppm, RejectsBadFiles) {
  EXPECT_THROW(read_ppm("/nonexistent.ppm"), std::runtime_error);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnfi_not_ppm.ppm").string();
  {
    std::ofstream f(path);
    f << "P3\n1 1\n255\n0 0 0\n";  // ASCII PPM, unsupported
  }
  EXPECT_THROW(read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

// Mutation sweep: every single-byte XOR (all 255 masks) and every
// truncation of a small PPM either loads or throws std::runtime_error.
// Headers whose w*h*3 wraps size_t, or exceeds the bytes left in the file,
// are rejected before the pixel buffer is allocated.
TEST(Ppm, SurvivesEveryByteFlipAndTruncation) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnfi_mutated.ppm").string();
  tensor::Tensor<float> img(tensor::chw(3, 2, 2));
  for (std::size_t i = 0; i < img.size(); ++i)
    img[i] = static_cast<float>(i) / 12.0F - 0.5F;
  write_ppm(path, img);
  std::string good;
  {
    std::ifstream f(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_EQ(good.size(), std::string("P6\n2 2\n255\n").size() + 12);
  const auto write = [&](const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  };
  std::size_t rejected = 0;
  const auto attempt = [&](const std::string& bytes, const std::string& what) {
    write(bytes);
    try {
      const auto back = read_ppm(path);
      EXPECT_EQ(back.shape().c, 3U) << what;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << what << ": non-runtime_error exception";
    }
  };
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (unsigned mask = 1; mask < 256; ++mask) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
      attempt(bad, "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
    }
  }
  for (std::size_t len = 0; len < good.size(); ++len)
    attempt(good.substr(0, len), "truncated to " + std::to_string(len));
  EXPECT_GE(rejected, good.size());  // at least every truncation

  // w*h*3 wraps to 2 in size_t; 20000x20000 would allocate 1.2 GB.
  const std::string body(12, '\x7f');
  for (const char* header :
       {"P6\n6148914691236517206 1\n255\n", "P6\n20000 20000\n255\n"}) {
    write(header + body);
    EXPECT_THROW(read_ppm(path), std::runtime_error) << header;
  }
  std::remove(path.c_str());
}

TEST(Ppm, RequiresThreeChannels) {
  tensor::Tensor<float> gray(tensor::chw(1, 4, 4));
  EXPECT_THROW(write_ppm("/tmp/never.ppm", gray), std::runtime_error);
}

TEST(Pretrain, DatasetBindingMatchesPaperTable2) {
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kConvNet)->name(), "shapes10");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kAlexNetS)->name(), "textures100");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kCaffeNetS)->name(), "textures100");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kNiNS)->name(), "textures100");
}

TEST(Pretrain, ExampleSourceAdaptsSamples) {
  ShapesDataset ds(5);
  const auto src = example_source(ds);
  const auto ex = src(17);
  EXPECT_EQ(ex.label, 7U);
  EXPECT_EQ(ex.image.shape(), ds.image_shape());
}

TEST(Pretrain, TrainConfigsAreSane) {
  for (const auto id : dnn::zoo::kAllNetworks) {
    const auto cfg = train_config_for(id);
    EXPECT_GT(cfg.epochs, 0U);
    EXPECT_GT(cfg.train_count, 0U);
    EXPECT_GT(cfg.learning_rate, 0.0);
    // Training must not touch the held-out split.
    EXPECT_LT(cfg.train_count, kTestSplitBegin);
  }
}

}  // namespace
}  // namespace dnnfi::data
