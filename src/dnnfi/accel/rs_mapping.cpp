#include "dnnfi/accel/rs_mapping.h"

#include <algorithm>
#include <cmath>

#include "dnnfi/common/expects.h"

namespace dnnfi::accel {

namespace {

/// RS maps one PE set per (kernel-row, output-row) pair: filter row r of
/// the kernel stays in PE row r (weight reuse in the filter SRAM), an
/// ifmap row slides diagonally (image reuse in the Img REG), and psums
/// accumulate vertically (output reuse in the PSum REG).
RsMapping map_conv(const accel::LayerFootprint& fp, const dnn::LayerSpec& ls,
                   std::size_t array_pes) {
  RsMapping m;
  m.layer_index = fp.layer_index;
  m.block = fp.block;
  m.is_conv = true;

  m.pe_set_height = ls.kernel;        // kernel rows
  m.pe_set_width = fp.out_shape.h;    // ofmap rows
  const std::size_t set_size = m.pe_set_height * m.pe_set_width;
  DNNFI_EXPECTS(set_size > 0);

  // How many complete PE sets fit at once; at least one set runs even if
  // it exceeds the array (folded over multiple passes).
  m.sets_per_pass = std::max<std::size_t>(1, array_pes / set_size);

  // Work items: one PE set instance per (output channel, input channel)
  // pair — each computes the 1-D row convolutions of that pair.
  const std::size_t set_instances = fp.out_shape.c * fp.in_shape.c;
  m.passes = (set_instances + m.sets_per_pass - 1) / m.sets_per_pass;
  const std::size_t sets_last_pass =
      set_instances - (m.passes - 1) * m.sets_per_pass;

  m.active_pes = std::min(array_pes, m.sets_per_pass * set_size);

  // Cycles: each pass runs its slowest PE set; sets are identical, and the
  // PEs within a set work in parallel on different (kernel-row, ofmap-row)
  // pairs, so a pass takes one PE's out_w * kernel MACs.
  const std::size_t pe_macs = fp.out_shape.w * ls.kernel;
  m.cycles = m.passes * pe_macs;

  const std::size_t total_pe_cycles = m.cycles * array_pes;
  const double active_cycles =
      static_cast<double>((m.passes - 1) * m.sets_per_pass * set_size +
                          sets_last_pass * set_size) *
      static_cast<double>(pe_macs);
  m.utilization = active_cycles / static_cast<double>(total_pe_cycles);

  // Compulsory DRAM traffic: each ifmap/filter/ofmap word moves once.
  m.dram_reads = fp.input_elems + fp.weight_elems;
  m.dram_writes = fp.output_elems;
  // GB: ifmaps staged once, read once per consuming PE set column
  // (image reuse across output channels happens in the array, not the GB);
  // psums spill per pass beyond the first.
  m.gb_accesses = fp.input_elems * fp.out_shape.c  // ifmap broadcast reads
                  + fp.output_elems * (m.passes > 1 ? 2 : 1);
  // Filter SRAM: each weight read once per ofmap position that reuses it.
  m.sram_accesses = fp.weight_elems * fp.out_shape.h * fp.out_shape.w /
                    std::max<std::size_t>(1, ls.stride * ls.stride);
  // Registers: one img-REG read + one psum-REG update per MAC.
  m.reg_accesses = 2 * fp.macs;
  return m;
}

/// FC layers map as 1x1 "convolutions": no spatial reuse, weights stream.
RsMapping map_fc(const accel::LayerFootprint& fp, std::size_t array_pes) {
  RsMapping m;
  m.layer_index = fp.layer_index;
  m.block = fp.block;
  m.is_conv = false;
  m.pe_set_height = 1;
  m.pe_set_width = 1;
  m.sets_per_pass = array_pes;
  const std::size_t outputs = fp.output_elems;
  m.passes = (outputs + array_pes - 1) / array_pes;
  m.active_pes = std::min(array_pes, outputs);
  const std::size_t pe_macs = fp.steps;  // one dot product per PE
  m.cycles = m.passes * pe_macs;
  m.utilization =
      static_cast<double>(fp.macs) /
      (static_cast<double>(m.cycles) * static_cast<double>(array_pes));
  m.dram_reads = fp.input_elems + fp.weight_elems;
  m.dram_writes = fp.output_elems;
  m.gb_accesses = fp.input_elems * m.passes + fp.output_elems;
  m.sram_accesses = fp.weight_elems;  // each weight used exactly once
  m.reg_accesses = 2 * fp.macs;
  return m;
}

}  // namespace

std::vector<RsMapping> map_network(const dnn::NetworkSpec& spec,
                                   std::size_t array_pes) {
  DNNFI_EXPECTS(array_pes > 0);
  const auto footprints = analyze(spec);
  std::vector<RsMapping> out;
  out.reserve(footprints.size());
  for (const auto& fp : footprints) {
    const dnn::LayerSpec& ls = spec.layers[fp.layer_index];
    out.push_back(fp.is_conv ? map_conv(fp, ls, array_pes)
                             : map_fc(fp, array_pes));
  }
  return out;
}

RsSummary summarize(const std::vector<RsMapping>& mappings) {
  DNNFI_EXPECTS(!mappings.empty());
  RsSummary s;
  double util_weighted = 0;
  double cycles_total = 0;
  for (const auto& m : mappings) {
    s.total_cycles += m.cycles;
    util_weighted += m.utilization * static_cast<double>(m.cycles);
    cycles_total += static_cast<double>(m.cycles);
    s.dram_traffic += m.dram_reads + m.dram_writes;
    s.gb_traffic += m.gb_accesses;
    s.sram_traffic += m.sram_accesses;
    s.reg_traffic += m.reg_accesses;
  }
  s.avg_utilization = util_weighted / cycles_total;
  return s;
}

}  // namespace dnnfi::accel
