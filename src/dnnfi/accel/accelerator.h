// Pluggable accelerator geometries. The paper studies one fixed geometry
// (a canonical PE datapath + an Eyeriss-style row-stationary buffer
// hierarchy); this interface lifts that inventory behind a virtual model so
// structurally different accelerators — here a TPU-style weight-stationary
// systolic array (arXiv 2405.15381) — plug into the same sampler, lowering,
// campaign, and FIT machinery.
//
// A geometry answers three questions:
//   1. which fault-site classes exist (`site_classes`),
//   2. how a uniform strike lands on a site (`sample_site` — RNG draws),
//   3. what layer-level fault the strike lowers to (`lower_site`).
// The Eyeriss model reproduces the seed behaviour bit-for-bit: identical RNG
// draw order, identical lowering. Campaigns on the default geometry are
// byte-identical to the pre-refactor code.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "dnnfi/accel/dataflow.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/network.h"
#include "dnnfi/fault/fault_op.h"

namespace dnnfi::accel {

/// Where the upset physically originates (paper §4.3: datapath latches and
/// buffers, inside and outside PEs). Geometry-independent taxonomy; each
/// model declares which classes it implements.
enum class SiteClass {
  kDatapathLatch,  ///< PE MAC latches (Fig 1b); read exactly once
  kGlobalBuffer,   ///< shared buffer ifmap word; reused by all consumers
  kFilterSram,     ///< per-PE weight word; reused across the whole fmap
  kImgReg,         ///< per-PE ifmap-row register; reused along one row
  kPsumReg,        ///< per-PE partial-sum register; read by next accumulate
};

inline constexpr std::array<SiteClass, 5> kAllSiteClasses = {
    SiteClass::kDatapathLatch, SiteClass::kGlobalBuffer,
    SiteClass::kFilterSram, SiteClass::kImgReg, SiteClass::kPsumReg};

inline constexpr std::array<SiteClass, 4> kBufferSiteClasses = {
    SiteClass::kGlobalBuffer, SiteClass::kFilterSram, SiteClass::kImgReg,
    SiteClass::kPsumReg};

constexpr const char* site_class_name(SiteClass c) {
  switch (c) {
    case SiteClass::kDatapathLatch: return "datapath";
    case SiteClass::kGlobalBuffer:  return "global-buffer";
    case SiteClass::kFilterSram:    return "filter-sram";
    case SiteClass::kImgReg:        return "img-reg";
    case SiteClass::kPsumReg:       return "psum-reg";
  }
  return "?";
}

/// Maps a buffer site class to the on-chip structure it models.
constexpr BufferKind buffer_of(SiteClass c) {
  switch (c) {
    case SiteClass::kGlobalBuffer: return BufferKind::kGlobalBuffer;
    case SiteClass::kFilterSram:   return BufferKind::kFilterSram;
    case SiteClass::kImgReg:       return BufferKind::kImgReg;
    case SiteClass::kPsumReg:      return BufferKind::kPsumReg;
    case SiteClass::kDatapathLatch: break;
  }
  DNNFI_EXPECTS(false);
  return BufferKind::kGlobalBuffer;
}

/// Implemented accelerator geometries.
enum class AcceleratorKind : std::uint8_t {
  kEyeriss,   ///< row-stationary Eyeriss hierarchy (the paper's model)
  kSystolic,  ///< weight-stationary N x M systolic array (TPU-style)
};

/// Geometry selection, parsed from `--accel=eyeriss|systolic:<N>x<M>`.
struct AcceleratorConfig {
  AcceleratorKind kind = AcceleratorKind::kEyeriss;
  std::size_t rows = 16;  ///< systolic array rows (psum-chain length)
  std::size_t cols = 16;  ///< systolic array columns (output-channel lanes)

  constexpr bool is_eyeriss() const noexcept {
    return kind == AcceleratorKind::kEyeriss;
  }
  /// Canonical spelling: "eyeriss" or "systolic:<rows>x<cols>". This string
  /// is the geometry's identity in fingerprints and checkpoints.
  std::string to_string() const;

  friend bool operator==(const AcceleratorConfig&,
                         const AcceleratorConfig&) = default;
};

/// Parses the canonical spelling; nullopt on malformed input, including a
/// systolic geometry whose PE count rows * cols would overflow size_t.
std::optional<AcceleratorConfig> parse_accelerator(std::string_view s);

/// Geometry-level coordinates of one sampled strike, before lowering.
/// `pe_row`/`pe_col` locate the struck PE on array geometries; Eyeriss
/// leaves them zero (its reuse model does not depend on PE position).
struct SiteCoords {
  SiteClass cls = SiteClass::kDatapathLatch;
  DatapathLatch latch = DatapathLatch::kAccumulator;
  std::size_t element = 0;
  std::size_t step = 0;
  std::size_t out_channel = 0;  ///< Img-REG reuse scope (Eyeriss)
  std::size_t out_row = 0;      ///< Img-REG reuse scope (Eyeriss)
  std::size_t pe_row = 0;
  std::size_t pe_col = 0;
};

/// One accelerator geometry: site inventory, uniform strike sampling, and
/// lowering onto the layer-level fault hooks the Executor patches with.
class AcceleratorModel {
 public:
  explicit AcceleratorModel(AcceleratorConfig cfg) : cfg_(cfg) {}
  virtual ~AcceleratorModel() = default;

  const AcceleratorConfig& config() const noexcept { return cfg_; }
  virtual const char* name() const noexcept = 0;

  /// Site classes this geometry implements, in kAllSiteClasses order.
  virtual std::span<const SiteClass> site_classes() const noexcept = 0;
  bool supports(SiteClass c) const noexcept {
    for (SiteClass s : site_classes())
      if (s == c) return true;
    return false;
  }

  /// PEs in the array (drives the datapath FIT model).
  virtual std::size_t num_pes() const noexcept = 0;

  /// Occupied words of the structure backing `cls` while `fp` executes
  /// (sampler weighting + FIT occupancy). Default: the shared dataflow
  /// footprint analysis.
  virtual std::size_t occupied_elems(const LayerFootprint& fp,
                                     SiteClass cls) const {
    return accel::occupied_elems(fp, buffer_of(cls));
  }

  /// Draws the within-layer coordinates of one uniform strike of class
  /// `cls` on layer `fp`/`ls`. Every RNG draw a geometry makes is part of
  /// its determinism contract (trial streams replay bit-identically).
  virtual SiteCoords sample_site(SiteClass cls, const LayerFootprint& fp,
                                 const dnn::LayerSpec& ls, Rng& rng,
                                 std::optional<DatapathLatch> fixed_latch)
      const = 0;

  /// Lowers a strike at `c` with operation `op` onto layer-level hooks.
  /// `out.layer` is already set by the caller; the model fills the rest.
  virtual void lower_site(const SiteCoords& c, const fault::FaultOp& op,
                          const std::optional<numeric::DType>& storage,
                          dnn::AppliedFault& out) const = 0;

 private:
  AcceleratorConfig cfg_;
};

/// The paper's geometry: row-stationary Eyeriss reuse classes. Sampling and
/// lowering are bit-identical to the pre-interface seed implementation.
class EyerissModel final : public AcceleratorModel {
 public:
  EyerissModel() : AcceleratorModel({}) {}
  const char* name() const noexcept override { return "eyeriss"; }
  std::span<const SiteClass> site_classes() const noexcept override;
  std::size_t num_pes() const noexcept override;
  SiteCoords sample_site(SiteClass cls, const LayerFootprint& fp,
                         const dnn::LayerSpec& ls, Rng& rng,
                         std::optional<DatapathLatch> fixed_latch)
      const override;
  void lower_site(const SiteCoords& c, const fault::FaultOp& op,
                  const std::optional<numeric::DType>& storage,
                  dnn::AppliedFault& out) const override;
};

/// Weight-stationary N x M systolic array (TPU-style; arXiv 2405.15381).
/// Output channels map round-robin onto columns (channel % cols); partial
/// sums flow down a column, one accumulation step per row transit.
///
/// Site semantics under weight-stationary reuse:
///   datapath/operand-act, product : consumed by one MAC -> MacFault
///   datapath/operand-weight       : the weight LATCH is stationary, so the
///                                   corrupt operand persists for the whole
///                                   tile -> WeightFault on the (channel,
///                                   step) weight
///   datapath/accumulator, psum-reg: the corrupt partial sum re-enters the
///                                   column's adder chain and taints every
///                                   output element still flowing through
///                                   that column -> ColumnFault
///   filter-sram                   : resident weight word -> WeightFault
///   global-buffer                 : shared ifmap word -> input-ACT flip
/// Img-REG does not exist (activations stream; there is no per-PE ifmap-row
/// register), so kImgReg is not in site_classes().
class SystolicArray final : public AcceleratorModel {
 public:
  explicit SystolicArray(AcceleratorConfig cfg);
  const char* name() const noexcept override { return "systolic"; }
  std::span<const SiteClass> site_classes() const noexcept override;
  std::size_t num_pes() const noexcept override;
  SiteCoords sample_site(SiteClass cls, const LayerFootprint& fp,
                         const dnn::LayerSpec& ls, Rng& rng,
                         std::optional<DatapathLatch> fixed_latch)
      const override;
  void lower_site(const SiteCoords& c, const fault::FaultOp& op,
                  const std::optional<numeric::DType>& storage,
                  dnn::AppliedFault& out) const override;
};

/// Process-wide default geometry (the paper's Eyeriss model).
const AcceleratorModel& eyeriss_model();

/// Instantiates the model for `cfg`.
std::unique_ptr<AcceleratorModel> make_accelerator(const AcceleratorConfig& cfg);

}  // namespace dnnfi::accel
