#include "dnnfi/accel/dataflow.h"

#include "dnnfi/common/expects.h"

namespace dnnfi::accel {

using dnn::LayerKind;
using dnn::LayerSpec;
using dnn::NetworkSpec;
using dnn::Shape;

std::vector<LayerFootprint> analyze(const NetworkSpec& spec) {
  std::vector<LayerFootprint> out;
  Shape shape = spec.input;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const LayerSpec& l = spec.layers[i];
    const Shape os = dnn::shape_after(l, shape);
    if (const std::size_t steps = dnn::mac_steps(l, shape); steps > 0) {
      LayerFootprint fp;
      fp.layer_index = i;
      fp.block = l.block;
      fp.is_conv = (l.kind == LayerKind::kConv);
      fp.in_shape = shape;
      fp.out_shape = os;
      fp.input_elems = shape.size();
      fp.output_elems = os.size();
      fp.steps = steps;
      fp.weight_elems =
          (fp.is_conv ? l.out_channels : l.out_features) * fp.steps;
      fp.macs = fp.output_elems * fp.steps;
      out.push_back(fp);
    }
    shape = os;
  }
  DNNFI_ENSURES(!out.empty());
  return out;
}

std::vector<LayerFootprint> analyze_range(const NetworkSpec& spec,
                                          std::size_t from, std::size_t to) {
  DNNFI_EXPECTS(from < to && to <= spec.layers.size());
  std::vector<LayerFootprint> out;
  for (const auto& fp : analyze(spec))
    if (fp.layer_index >= from && fp.layer_index < to) out.push_back(fp);
  return out;
}

std::size_t total_macs(const std::vector<LayerFootprint>& fp) {
  std::size_t total = 0;
  for (const auto& f : fp) total += f.macs;
  return total;
}

std::size_t macs_in_range(const std::vector<LayerFootprint>& fp,
                          std::size_t from, std::size_t to) {
  std::size_t total = 0;
  for (const auto& f : fp)
    if (f.layer_index >= from && f.layer_index < to) total += f.macs;
  return total;
}

std::size_t occupied_elems(const LayerFootprint& fp, BufferKind buffer) {
  switch (buffer) {
    case BufferKind::kGlobalBuffer:
      // The GB holds the layer's ifmaps for the duration of the layer.
      return fp.input_elems;
    case BufferKind::kFilterSram:
      return fp.weight_elems;
    case BufferKind::kImgReg:
      // Img REGs collectively stage the ifmap rows currently being consumed;
      // every ifmap element passes through one.
      return fp.input_elems;
    case BufferKind::kPsumReg:
      return fp.output_elems;
  }
  DNNFI_EXPECTS(false);
  return 0;
}

std::size_t reuse_reach(const LayerFootprint& fp, BufferKind buffer) {
  switch (buffer) {
    case BufferKind::kGlobalBuffer: {
      if (!fp.is_conv) return 1;  // an FC input feeds each output once
      // Upper bound: every kernel position of every output channel that
      // reads the element — approximately out_c * k^2 / stride^2 uses.
      const std::size_t per_channel =
          fp.steps / std::max<std::size_t>(1, fp.in_shape.c);
      return fp.out_shape.c * per_channel;
    }
    case BufferKind::kFilterSram:
      return fp.is_conv ? fp.out_shape.h * fp.out_shape.w : 1;
    case BufferKind::kImgReg:
      return fp.is_conv ? fp.out_shape.w : 1;
    case BufferKind::kPsumReg:
      return 1;
  }
  DNNFI_EXPECTS(false);
  return 0;
}

}  // namespace dnnfi::accel
