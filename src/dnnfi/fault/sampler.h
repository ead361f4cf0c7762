// Uniform fault-site sampling over (occupied storage bits x residency time).
//
// Soft errors strike uniformly in space and time. For datapath latches, the
// latch set is rewritten every MAC, so "time" weights a layer by its MAC
// count. For buffers, a word is vulnerable while it holds live data, so a
// layer is weighted by occupied-words x layer duration (MACs), and the word
// itself is uniform over the occupied footprint. Faults landing in
// unoccupied buffer space are architecturally masked and therefore excluded
// from sampling (the FIT model accounts for occupancy — DESIGN.md §4/5).
//
// Within-layer coordinates come from the accelerator geometry
// (accel::AcceleratorModel::sample_site): Eyeriss reproduces the seed draw
// order bit-for-bit; other geometries define their own site inventory.
#pragma once

#include <optional>
#include <vector>

#include "dnnfi/accel/accelerator.h"
#include "dnnfi/accel/dataflow.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/fault/descriptor.h"
#include "dnnfi/numeric/dtype.h"

namespace dnnfi::fault {

/// Restrictions for stratified studies (per-bit, per-layer).
struct SampleConstraint {
  std::optional<int> fixed_bit;    ///< inject only this bit position
  std::optional<int> fixed_block;  ///< inject only in this logical layer
  std::optional<accel::DatapathLatch> fixed_latch;  ///< only this latch class
  /// Reduced-precision buffer storage: buffer upsets strike this format
  /// (and bits are sampled within its width) instead of the datapath type.
  std::optional<numeric::DType> buffer_storage;
  /// Fault operation applied at the sampled bit: toggle (default, the
  /// paper's XOR SEU model), stuck-at-0 or stuck-at-1, over a burst of
  /// adjacent bits or an arbitrary pattern (FaultOpSpec).
  FaultOpSpec op;
};

/// Samples fault descriptors for one (topology, dtype, geometry) triple.
class Sampler {
 public:
  Sampler(const dnn::NetworkSpec& spec, numeric::DType dtype,
          const accel::AcceleratorModel& model = accel::eyeriss_model());

  /// Draws one fault site of class `cls` from `rng`. `cls` must be in the
  /// geometry's site inventory (model().supports(cls)).
  FaultDescriptor sample(SiteClass cls, Rng& rng,
                         const SampleConstraint& constraint = {}) const;

  const std::vector<accel::LayerFootprint>& footprints() const noexcept {
    return footprints_;
  }
  numeric::DType dtype() const noexcept { return dtype_; }
  const accel::AcceleratorModel& model() const noexcept { return *model_; }

 private:
  std::size_t pick_layer(SiteClass cls, Rng& rng,
                         const SampleConstraint& constraint) const;

  dnn::NetworkSpec spec_;
  numeric::DType dtype_;
  const accel::AcceleratorModel* model_;
  std::vector<accel::LayerFootprint> footprints_;
};

}  // namespace dnnfi::fault
