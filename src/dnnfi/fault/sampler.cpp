#include "dnnfi/fault/sampler.h"

#include <algorithm>

namespace dnnfi::fault {

using accel::LayerFootprint;

Sampler::Sampler(const dnn::NetworkSpec& spec, numeric::DType dtype,
                 const accel::AcceleratorModel& model)
    : spec_(spec),
      dtype_(dtype),
      model_(&model),
      footprints_(accel::analyze(spec)) {}

std::size_t Sampler::pick_layer(SiteClass cls, Rng& rng,
                                const SampleConstraint& constraint) const {
  // Weight per layer: MACs (datapath) or occupied-words x MACs (buffers).
  std::vector<double> weight(footprints_.size(), 0.0);
  double total = 0;
  for (std::size_t i = 0; i < footprints_.size(); ++i) {
    const LayerFootprint& fp = footprints_[i];
    if (constraint.fixed_block && fp.block != *constraint.fixed_block) continue;
    double w = static_cast<double>(fp.macs);
    if (cls != SiteClass::kDatapathLatch)
      w *= static_cast<double>(model_->occupied_elems(fp, cls));
    weight[i] = w;
    total += w;
  }
  DNNFI_EXPECTS(total > 0);
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < footprints_.size(); ++i) {
    u -= weight[i];
    if (u <= 0) return i;
  }
  // Floating-point slack: return the last eligible layer.
  for (std::size_t i = footprints_.size(); i-- > 0;)
    if (weight[i] > 0) return i;
  DNNFI_EXPECTS(false);
  return 0;
}

FaultDescriptor Sampler::sample(SiteClass cls, Rng& rng,
                                const SampleConstraint& constraint) const {
  DNNFI_EXPECTS(model_->supports(cls));
  const std::size_t ordinal = pick_layer(cls, rng, constraint);
  const LayerFootprint& fp = footprints_[ordinal];

  FaultDescriptor f;
  f.cls = cls;
  f.mac_ordinal = ordinal;
  f.layer_index = fp.layer_index;
  f.block = fp.block;
  f.geom = model_->config().kind;
  if (cls != SiteClass::kDatapathLatch && constraint.buffer_storage)
    f.storage = constraint.buffer_storage;
  const int width = f.storage ? numeric::dtype_width(*f.storage)
                              : numeric::dtype_width(dtype_);
  f.bit = constraint.fixed_bit
              ? *constraint.fixed_bit
              : static_cast<int>(rng.below(static_cast<std::uint64_t>(width)));
  DNNFI_EXPECTS(f.bit >= 0 && f.bit < width);
  DNNFI_EXPECTS(constraint.op.burst >= 1);
  f.burst = constraint.op.burst;
  f.op = constraint.op.at(f.bit);

  const accel::SiteCoords c = model_->sample_site(
      cls, fp, spec_.layers[fp.layer_index], rng, constraint.fixed_latch);
  f.latch = c.latch;
  f.element = c.element;
  f.step = c.step;
  f.out_channel = c.out_channel;
  f.out_row = c.out_row;
  f.pe_row = c.pe_row;
  f.pe_col = c.pe_col;
  return f;
}

}  // namespace dnnfi::fault
