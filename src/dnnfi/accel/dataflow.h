// Static dataflow analysis: for each MAC layer of a topology, the data
// footprints that occupy accelerator storage while the layer executes, and
// the reuse scope each buffer's contents have. This drives both the fault
// sampler's site weighting and the FIT model's occupancy accounting.
#pragma once

#include <vector>

#include "dnnfi/accel/eyeriss.h"
#include "dnnfi/dnn/spec.h"

namespace dnnfi::accel {

/// Footprint of one MAC (conv/FC) layer.
struct LayerFootprint {
  std::size_t layer_index = 0;   ///< index into NetworkSpec::layers
  int block = 0;                 ///< logical paper-layer
  bool is_conv = false;
  std::size_t input_elems = 0;   ///< ifmap elements resident in the GB
  std::size_t weight_elems = 0;  ///< filter elements resident in filter SRAMs
  std::size_t output_elems = 0;  ///< ofmap/psum elements
  std::size_t macs = 0;          ///< MACs executed by the layer
  std::size_t steps = 0;         ///< accumulation steps per output element
  dnn::Shape in_shape;           ///< layer input shape
  dnn::Shape out_shape;          ///< layer output shape
};

/// Footprints of all MAC layers, in execution order.
std::vector<LayerFootprint> analyze(const dnn::NetworkSpec& spec);

/// Footprints of the MAC layers whose NetworkSpec index lies in [from, to),
/// used to account for the work incremental replay actually executes
/// (DESIGN.md §8).
std::vector<LayerFootprint> analyze_range(const dnn::NetworkSpec& spec,
                                          std::size_t from, std::size_t to);

/// Total MACs across all layers of `fp`.
std::size_t total_macs(const std::vector<LayerFootprint>& fp);

/// MACs of the layers of `fp` whose NetworkSpec index lies in [from, to):
/// the arithmetic a replay starting at layer `from` and early-exiting
/// before layer `to` performs.
std::size_t macs_in_range(const std::vector<LayerFootprint>& fp,
                          std::size_t from, std::size_t to);

/// How many elements of `buffer` hold *live* network data during layer `fp`
/// (occupied words; faults landing in unoccupied space are masked by
/// construction and excluded from sampling — see DESIGN.md §4).
std::size_t occupied_elems(const LayerFootprint& fp, BufferKind buffer);

/// Elements a single corrupted word of `buffer` can reach before being
/// overwritten, under the row-stationary reuse model:
///   Global Buffer -> every consumer of the ifmap element (whole layer)
///   Filter SRAM   -> every MAC using the weight (one output channel / one
///                    output neuron)
///   Img REG       -> one output row of one output channel
///   PSum REG      -> one accumulation chain (one output element)
/// Returned purely for reporting; the injection semantics are implemented
/// by the fault module's lowering.
std::size_t reuse_reach(const LayerFootprint& fp, BufferKind buffer);

}  // namespace dnnfi::accel
