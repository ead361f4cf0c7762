// Layer-level fault descriptors. The fault module samples hardware-level
// fault sites (latches, buffer bits) and lowers them onto these hooks;
// apply_faults (layers.h) applies them bit-exactly to a conv or FC step's
// fault-free output. Each hook carries a mask-based fault::FaultOp (set0 /
// set1 / toggle masks) describing *what* happens to the struck word.
//
// Scoping mirrors the accelerator reuse analysis (paper §2.2, §5.2 for the
// Eyeriss geometry; accel::SystolicArray for the weight-stationary array):
//   * a datapath latch value is consumed exactly once        -> MacFault
//   * a Filter-SRAM weight is reused across a whole fmap     -> WeightFault
//   * an Img-REG value is reused along one output row        -> ScopedInputFault
//   * a systolic psum entering a column's adder chain taints
//     every output still flowing through that column         -> ColumnFault
//   * a Global-Buffer ifmap word is reused by every kernel   -> handled by the
//     injector flipping the layer's input activation tensor directly.
#pragma once

#include <cstddef>
#include <optional>

#include "dnnfi/fault/fault_op.h"
#include "dnnfi/numeric/dtype.h"

namespace dnnfi::dnn {

/// Which datapath latch of the MAC unit (paper Fig 1b) holds the upset.
enum class MacSite {
  kOperandAct,     ///< activation operand latch, read once by the multiplier
  kOperandWeight,  ///< weight operand latch, read once by the multiplier
  kProduct,        ///< multiplier output latch
  kAccumulator,    ///< adder/partial-sum latch (also models PSum REG upsets)
};

/// Upset in one MAC of one output element.
/// `step` indexes the accumulation order: for convolution, steps enumerate
/// the (ci, ky, kx) kernel volume in row-major order (padded taps included,
/// reading zero); for fully-connected layers, steps enumerate inputs.
struct MacFault {
  std::size_t out_index = 0;  ///< flat index into the layer output tensor
  std::size_t step = 0;       ///< accumulation step the corrupted latch feeds
  MacSite site = MacSite::kAccumulator;
  fault::FaultOp op;          ///< mask operation applied to the latch word
};

/// Upset in a weight held in a per-PE Filter SRAM (or stationary in a
/// systolic PE): the corrupted weight is consumed by every MAC that reuses
/// it during the layer.
struct WeightFault {
  std::size_t weight_index = 0;  ///< flat index into the layer weight tensor
  fault::FaultOp op;
  /// When set, the upset strikes the weight as stored in this (reduced)
  /// format rather than the datapath type (Proteus-style storage).
  std::optional<numeric::DType> storage;
};

/// Upset in an Img REG: the corrupted input value is consumed by the MACs
/// of one output row of one output channel (row-stationary reuse).
struct ScopedInputFault {
  std::size_t input_index = 0;  ///< flat index into the layer input tensor
  std::size_t out_channel = 0;  ///< output channel whose row is affected
  std::size_t out_row = 0;      ///< output row computed from the faulty REG
  fault::FaultOp op;
  std::optional<numeric::DType> storage;  ///< reduced storage format, if any
};

/// Weight-stationary systolic column propagation: a corrupt partial sum at
/// accumulation step `step` re-enters column `col`'s adder chain and taints
/// every output element still flowing through that column — i.e. every
/// element with flat index >= `first_out` whose output channel maps onto
/// the column (`channel % cols == col`). The struck element is `first_out`.
struct ColumnFault {
  std::size_t col = 0;        ///< array column of the struck PE
  std::size_t cols = 1;       ///< array width (channel -> column mapping)
  std::size_t first_out = 0;  ///< struck output element (first corrupted)
  std::size_t step = 0;       ///< accumulation step of the strike
  fault::FaultOp op;
};

/// The set of faults a single layer invocation should apply. At most one
/// field is set per injection trial (single-event upsets).
struct LayerFaults {
  std::optional<MacFault> mac;
  std::optional<WeightFault> weight;
  std::optional<ScopedInputFault> scoped_input;
  std::optional<ColumnFault> column;
};

/// Written by apply_faults when it applies a fault: the corrupted quantity
/// before and after the upset, in double. Feeds the paper's Fig 5 value
/// study. `act_before/after` hold the affected *output* activation.
struct InjectionRecord {
  double corrupted_before = 0;  ///< latch/buffer value pre-upset
  double corrupted_after = 0;   ///< latch/buffer value post-upset
  double act_before = 0;        ///< affected output ACT, fault-free
  double act_after = 0;         ///< affected output ACT, faulty
  bool zero_to_one = false;     ///< the lowest affected bit went 0 -> 1
  bool applied = false;
};

}  // namespace dnnfi::dnn
