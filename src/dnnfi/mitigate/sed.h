// Symptom-based Error Detectors (paper §6.2).
//
// Learning phase: run the instrumented network fault-free on representative
// inputs and record the per-layer activation value ranges; widen by a 10%
// cushion. Deployment: the host asynchronously checks each layer's fmap
// (while it sits in the global buffer) against the learned range; any value
// outside the range flags a detection.
#pragma once

#include <functional>

#include "dnnfi/fault/campaign.h"

namespace dnnfi::mitigate {

/// A learned symptom detector: per-block value bounds with cushion.
class SedDetector {
 public:
  SedDetector(std::vector<fault::BlockRange> raw_ranges, double cushion);

  /// True when `value` observed at the end of logical layer `block`
  /// (1-based) is outside the learned bounds — a symptom.
  bool anomalous(int block, double value) const;

  /// Adapter for CampaignOptions::detector.
  std::function<bool(int, double)> as_predicate() const;

  /// Scans a block-end fmap (e.g. an executor observer's view) the way the
  /// host-side check scans the global buffer: true when any element is a
  /// symptom.
  template <typename T>
  bool flags(int block, tensor::ConstTensorView<T> act) const {
    for (std::size_t i = 0; i < act.size(); ++i) {
      if (anomalous(block, numeric::numeric_traits<T>::to_double(act[i])))
        return true;
    }
    return false;
  }

  const std::vector<fault::BlockRange>& bounds() const noexcept {
    return bounds_;
  }
  double cushion() const noexcept { return cushion_; }

 private:
  std::vector<fault::BlockRange> bounds_;  // cushion already applied
  double cushion_;
};

/// Learning phase: profiles fault-free ranges over `count` examples starting
/// at `begin` and applies the cushion (paper uses 10%).
SedDetector learn_sed(const dnn::NetworkSpec& spec,
                      const dnn::WeightsBlob& blob, numeric::DType dtype,
                      const dnn::ExampleSource& source, std::uint64_t begin,
                      std::size_t count, double cushion = 0.10);

/// Detector quality on a campaign run with the detector attached
/// (paper §6.2 definitions):
///   precision = 1 - (#benign trials flagged) / (#trials)
///   recall    = (#SDC trials flagged) / (#SDC trials)
struct SedEvaluation {
  fault::Estimate precision;
  fault::Estimate recall;
  std::size_t detections = 0;
  std::size_t sdc_count = 0;
};

SedEvaluation evaluate_sed(const fault::CampaignResult& result);

/// Streaming counterpart: same definitions computed from an accumulator
/// (Wilson intervals). `evaluate_sed(run(...))` and
/// `evaluate_sed(run_shard(...).acc)` agree on every point estimate.
SedEvaluation evaluate_sed(const fault::OutcomeAccumulator& acc);

}  // namespace dnnfi::mitigate
