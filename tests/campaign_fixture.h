// Shared fixture of the campaign suites that compare TrialRecord streams
// byte for byte: a tiny network and a three-input campaign on it, options with a
// live detector, the byte-exact encoding of a trial's record, a shard run
// captured as those bytes, and scratch checkpoint paths.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"

namespace dnnfi::fault {

using dnn::SpecBuilder;
using numeric::DType;
using tensor::chw;
using tensor::Tensor;

inline dnn::NetworkSpec tiny_spec() {
  return SpecBuilder("tiny", chw(2, 8, 8), 4)
      .conv(3, 3, 1, 1).relu().maxpool(2, 2)
      .conv(4, 3, 1, 1).relu().maxpool(2, 2)
      .fc(4).softmax()
      .build();
}

inline dnn::WeightsBlob tiny_blob() {
  dnn::Network<float> net(tiny_spec());
  dnn::init_weights(net, 1);
  return dnn::extract_weights(net);
}

inline std::vector<dnn::Example> tiny_inputs(std::size_t n) {
  std::vector<dnn::Example> v;
  for (std::size_t s = 0; s < n; ++s) {
    dnn::Example ex;
    ex.image = Tensor<float>(chw(2, 8, 8));
    Rng rng = derive_stream(1234, s);
    for (std::size_t i = 0; i < ex.image.size(); ++i)
      ex.image[i] = static_cast<float>(rng.normal() * 0.6);
    ex.label = 0;
    v.push_back(std::move(ex));
  }
  return v;
}

inline Campaign tiny_campaign(DType dt) {
  return Campaign(tiny_spec(), tiny_blob(), dt, tiny_inputs(3));
}

inline CampaignOptions base_options() {
  CampaignOptions opt;
  opt.trials = 96;
  opt.seed = 77;
  opt.record_block_distances = true;
  // A live detector so `detected` is part of the compared state too.
  opt.detector = [](int, double v) { return v > 40.0 || v < -40.0; };
  return opt;
}

/// Byte-exact encoding of everything a trial produced.
inline void record_bytes(ByteWriter& w, std::uint64_t trial, const TrialRecord& t) {
  w.u64(trial);
  w.u32(static_cast<std::uint32_t>(t.fault.cls));
  w.u32(static_cast<std::uint32_t>(t.fault.latch));
  w.u64(t.fault.mac_ordinal);
  w.u64(t.fault.layer_index);
  w.u32(static_cast<std::uint32_t>(t.fault.block));
  w.u64(t.fault.element);
  w.u64(t.fault.step);
  w.u64(t.fault.out_channel);
  w.u64(t.fault.out_row);
  w.u32(static_cast<std::uint32_t>(t.fault.bit));
  w.u32(static_cast<std::uint32_t>(t.fault.burst));
  w.u8(t.outcome.sdc1 ? 1 : 0);
  w.u8(t.outcome.sdc5 ? 1 : 0);
  w.u8(t.outcome.sdc10 ? 1 : 0);
  w.u8(t.outcome.sdc20 ? 1 : 0);
  w.f64(t.record.corrupted_before);
  w.f64(t.record.corrupted_after);
  w.f64(t.record.act_before);
  w.f64(t.record.act_after);
  w.u8(t.record.zero_to_one ? 1 : 0);
  w.u8(t.record.applied ? 1 : 0);
  w.u64(t.input_index);
  w.u8(t.detected ? 1 : 0);
  w.f64(t.output_corruption);
  w.u64(t.block_distance.size());
  for (const double d : t.block_distance) w.f64(d);
}

struct ShardCapture {
  std::vector<std::uint8_t> records;  // concatenated record encodings
  ShardResult result;
};

inline ShardCapture capture(const Campaign& c, const CampaignOptions& opt,
                     ShardSpec shard = {}) {
  ShardCapture cap;
  ByteWriter w;
  const TrialSink sink = [&w](std::uint64_t trial, const TrialRecord& t) {
    record_bytes(w, trial, t);
  };
  cap.result = c.run_shard(opt, shard, &sink);
  cap.records = w.take();
  return cap;
}

inline std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          ("dnnfi_test_" + stem + "_" + std::to_string(::getpid()) + ".ckpt"))
      .string();
}

struct TempFile {
  explicit TempFile(const std::string& stem) : path(temp_path(stem)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

}  // namespace dnnfi::fault
