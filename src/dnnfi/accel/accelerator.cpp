#include "dnnfi/accel/accelerator.h"

#include <charconv>
#include <limits>

namespace dnnfi::accel {

namespace {

/// Output channel owning flat output element `e` of layer `fp`.
std::size_t channel_of(const LayerFootprint& fp, std::size_t e) {
  if (!fp.is_conv) return e;
  return e / (fp.out_shape.h * fp.out_shape.w);
}

dnn::MacSite to_mac_site(DatapathLatch l) {
  switch (l) {
    case DatapathLatch::kOperandAct:    return dnn::MacSite::kOperandAct;
    case DatapathLatch::kOperandWeight: return dnn::MacSite::kOperandWeight;
    case DatapathLatch::kProduct:       return dnn::MacSite::kProduct;
    case DatapathLatch::kAccumulator:   return dnn::MacSite::kAccumulator;
  }
  DNNFI_EXPECTS(false);
  return dnn::MacSite::kAccumulator;
}

}  // namespace

std::string AcceleratorConfig::to_string() const {
  if (is_eyeriss()) return "eyeriss";
  return "systolic:" + std::to_string(rows) + "x" + std::to_string(cols);
}

std::optional<AcceleratorConfig> parse_accelerator(std::string_view s) {
  if (s == "eyeriss") return AcceleratorConfig{};
  constexpr std::string_view prefix = "systolic:";
  if (s.substr(0, prefix.size()) != prefix) return std::nullopt;
  s.remove_prefix(prefix.size());
  const std::size_t x = s.find('x');
  if (x == std::string_view::npos) return std::nullopt;
  AcceleratorConfig cfg;
  cfg.kind = AcceleratorKind::kSystolic;
  const std::string_view r = s.substr(0, x), c = s.substr(x + 1);
  auto [rp, rec] = std::from_chars(r.data(), r.data() + r.size(), cfg.rows);
  auto [cp, cec] = std::from_chars(c.data(), c.data() + c.size(), cfg.cols);
  if (rec != std::errc{} || cec != std::errc{} || rp != r.data() + r.size() ||
      cp != c.data() + c.size() || cfg.rows == 0 || cfg.cols == 0 ||
      cfg.rows > std::numeric_limits<std::size_t>::max() / cfg.cols)
    return std::nullopt;  // the PE count rows * cols must not wrap
  return cfg;
}

// ---------------------------------------------------------------- Eyeriss

std::span<const SiteClass> EyerissModel::site_classes() const noexcept {
  return kAllSiteClasses;
}

std::size_t EyerissModel::num_pes() const noexcept {
  return eyeriss_16nm().num_pes;
}

SiteCoords EyerissModel::sample_site(SiteClass cls, const LayerFootprint& fp,
                                     const dnn::LayerSpec& ls, Rng& rng,
                                     std::optional<DatapathLatch> fixed_latch)
    const {
  // Draw order is the seed sampler's, verbatim: trial RNG streams (and thus
  // every campaign artifact) are bit-identical to the pre-interface code.
  SiteCoords c;
  c.cls = cls;
  switch (cls) {
    case SiteClass::kDatapathLatch: {
      c.latch = fixed_latch ? *fixed_latch
                            : kAllDatapathLatches[rng.below(
                                  kAllDatapathLatches.size())];
      c.element = rng.below(fp.output_elems);
      c.step = rng.below(fp.steps);
      break;
    }
    case SiteClass::kPsumReg: {
      c.element = rng.below(fp.output_elems);
      c.step = rng.below(fp.steps);
      break;
    }
    case SiteClass::kFilterSram: {
      c.element = rng.below(fp.weight_elems);
      break;
    }
    case SiteClass::kGlobalBuffer: {
      c.element = rng.below(fp.input_elems);
      break;
    }
    case SiteClass::kImgReg: {
      c.element = rng.below(fp.input_elems);
      if (fp.is_conv) {
        c.out_channel = rng.below(fp.out_shape.c);
        // Output rows whose receptive field covers the faulty input row iy:
        // oy*stride + ky - pad == iy for some ky in [0, k).
        const std::size_t iy = (c.element / fp.in_shape.w) % fp.in_shape.h;
        std::vector<std::size_t> rows;
        for (std::size_t oy = 0; oy < fp.out_shape.h; ++oy) {
          const auto lo = static_cast<std::ptrdiff_t>(oy * ls.stride) -
                          static_cast<std::ptrdiff_t>(ls.pad);
          const auto hi = lo + static_cast<std::ptrdiff_t>(ls.kernel) - 1;
          const auto y = static_cast<std::ptrdiff_t>(iy);
          if (y >= lo && y <= hi) rows.push_back(oy);
        }
        DNNFI_EXPECTS(!rows.empty());
        c.out_row = rows[rng.below(rows.size())];
      } else {
        // FC: the staged input feeds one output neuron per REG residency.
        c.out_channel = rng.below(fp.output_elems);
        c.out_row = 0;
      }
      break;
    }
  }
  return c;
}

void EyerissModel::lower_site(const SiteCoords& c, const fault::FaultOp& op,
                              const std::optional<numeric::DType>& storage,
                              dnn::AppliedFault& out) const {
  switch (c.cls) {
    case SiteClass::kDatapathLatch: {
      dnn::MacFault m;
      m.out_index = c.element;
      m.step = c.step;
      m.site = to_mac_site(c.latch);
      m.op = op;
      out.faults.mac = m;
      break;
    }
    case SiteClass::kPsumReg: {
      // A PSum-REG upset is consumed by the next accumulation of its output
      // element: identical semantics to an accumulator-latch flip.
      dnn::MacFault m;
      m.out_index = c.element;
      m.step = c.step;
      m.site = dnn::MacSite::kAccumulator;
      m.op = op;
      out.faults.mac = m;
      break;
    }
    case SiteClass::kFilterSram: {
      dnn::WeightFault w;
      w.weight_index = c.element;
      w.op = op;
      w.storage = storage;
      out.faults.weight = w;
      break;
    }
    case SiteClass::kImgReg: {
      dnn::ScopedInputFault s;
      s.input_index = c.element;
      s.out_channel = c.out_channel;
      s.out_row = c.out_row;
      s.op = op;
      s.storage = storage;
      out.faults.scoped_input = s;
      break;
    }
    case SiteClass::kGlobalBuffer: {
      out.flip_layer_input = true;
      out.input_index = c.element;
      out.input_op = op;
      out.input_storage = storage;
      break;
    }
  }
}

// ----------------------------------------------------- Weight-stationary

namespace {
inline constexpr std::array<SiteClass, 4> kSystolicSiteClasses = {
    SiteClass::kDatapathLatch, SiteClass::kGlobalBuffer,
    SiteClass::kFilterSram, SiteClass::kPsumReg};
}  // namespace

SystolicArray::SystolicArray(AcceleratorConfig cfg) : AcceleratorModel(cfg) {
  DNNFI_EXPECTS(cfg.kind == AcceleratorKind::kSystolic && cfg.rows > 0 &&
                cfg.cols > 0);
}

std::span<const SiteClass> SystolicArray::site_classes() const noexcept {
  return kSystolicSiteClasses;
}

std::size_t SystolicArray::num_pes() const noexcept {
  return config().rows * config().cols;
}

SiteCoords SystolicArray::sample_site(SiteClass cls, const LayerFootprint& fp,
                                      const dnn::LayerSpec& /*ls*/, Rng& rng,
                                      std::optional<DatapathLatch> fixed_latch)
    const {
  SiteCoords c;
  c.cls = cls;
  switch (cls) {
    case SiteClass::kDatapathLatch:
    case SiteClass::kPsumReg: {
      if (cls == SiteClass::kDatapathLatch)
        c.latch = fixed_latch ? *fixed_latch
                              : kAllDatapathLatches[rng.below(
                                    kAllDatapathLatches.size())];
      c.element = rng.below(fp.output_elems);
      c.step = rng.below(fp.steps);
      c.out_channel = channel_of(fp, c.element);
      c.pe_col = c.out_channel % config().cols;
      c.pe_row = c.step % config().rows;
      if (cls == SiteClass::kDatapathLatch &&
          c.latch == DatapathLatch::kOperandWeight) {
        // The weight operand latch is *stationary*: the corruption persists
        // for the whole tile, so the strike is on the (channel, step) weight
        // itself. Flat OIHW/row-major index = channel * steps + step.
        c.element = c.out_channel * fp.steps + c.step;
      }
      break;
    }
    case SiteClass::kFilterSram: {
      c.element = rng.below(fp.weight_elems);
      c.out_channel = c.element / fp.steps;
      c.pe_col = c.out_channel % config().cols;
      c.pe_row = (c.element % fp.steps) % config().rows;
      break;
    }
    case SiteClass::kGlobalBuffer: {
      c.element = rng.below(fp.input_elems);
      break;
    }
    case SiteClass::kImgReg:
      // No per-PE ifmap-row register in a weight-stationary array.
      DNNFI_EXPECTS(false);
      break;
  }
  return c;
}

void SystolicArray::lower_site(const SiteCoords& c, const fault::FaultOp& op,
                               const std::optional<numeric::DType>& storage,
                               dnn::AppliedFault& out) const {
  // Accumulator-latch and PSum-REG strikes share the column-propagation
  // lowering: the corrupt partial sum re-enters the column's adder chain.
  const auto column_fault = [&] {
    dnn::ColumnFault f;
    f.col = c.pe_col;
    f.cols = config().cols;
    f.first_out = c.element;
    f.step = c.step;
    f.op = op;
    return f;
  };
  switch (c.cls) {
    case SiteClass::kDatapathLatch: {
      if (c.latch == DatapathLatch::kOperandAct ||
          c.latch == DatapathLatch::kProduct) {
        // Consumed by exactly one MAC before being overwritten by the next
        // streaming step, like the Eyeriss datapath.
        dnn::MacFault m;
        m.out_index = c.element;
        m.step = c.step;
        m.site = to_mac_site(c.latch);
        m.op = op;
        out.faults.mac = m;
      } else if (c.latch == DatapathLatch::kOperandWeight) {
        // Stationary weight latch: sample_site already rewrote `element`
        // into the flat weight index of the resident (channel, step) weight.
        dnn::WeightFault w;
        w.weight_index = c.element;
        w.op = op;
        out.faults.weight = w;
      } else {
        out.faults.column = column_fault();
      }
      break;
    }
    case SiteClass::kPsumReg: {
      out.faults.column = column_fault();
      break;
    }
    case SiteClass::kFilterSram: {
      dnn::WeightFault w;
      w.weight_index = c.element;
      w.op = op;
      w.storage = storage;
      out.faults.weight = w;
      break;
    }
    case SiteClass::kGlobalBuffer: {
      out.flip_layer_input = true;
      out.input_index = c.element;
      out.input_op = op;
      out.input_storage = storage;
      break;
    }
    case SiteClass::kImgReg:
      DNNFI_EXPECTS(false);
      break;
  }
}

const AcceleratorModel& eyeriss_model() {
  static const EyerissModel model;
  return model;
}

std::unique_ptr<AcceleratorModel> make_accelerator(
    const AcceleratorConfig& cfg) {
  if (cfg.is_eyeriss()) return std::make_unique<EyerissModel>();
  return std::make_unique<SystolicArray>(cfg);
}

}  // namespace dnnfi::accel
