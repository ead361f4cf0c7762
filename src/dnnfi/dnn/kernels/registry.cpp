// Kernel registry: mode resolution (DNNFI_KERNELS + CPUID), per-type set
// lookup, and the packed-layout transform.
// Compiled without SIMD flags: every COMDAT-eligible template this TU
// instantiates (kernel_scalar.h, kernels.h) gets safe baseline codegen.
#include "dnnfi/dnn/kernels/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "dnnfi/common/env.h"
#include "dnnfi/dnn/kernels/kernel_avx2.h"
#include "dnnfi/dnn/kernels/kernel_avx512.h"
#include "dnnfi/dnn/kernels/kernel_scalar.h"
#include "dnnfi/numeric/cpu.h"

namespace dnnfi::dnn::kernels {

namespace {

enum class Mode { kAuto, kScalar, kAvx2, kAvx512, kAvx512Fp16 };

bool parse_mode(std::string_view s, Mode& out) {
  if (s == "auto") {
    out = Mode::kAuto;
  } else if (s == "scalar") {
    out = Mode::kScalar;
  } else if (s == "avx2") {
    out = Mode::kAvx2;
  } else if (s == "avx512") {
    out = Mode::kAvx512;
  } else if (s == "avx512fp16") {
    out = Mode::kAvx512Fp16;
  } else {
    return false;
  }
  return true;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kScalar:
      return "scalar";
    case Mode::kAvx2:
      return "avx2";
    case Mode::kAvx512:
      return "avx512";
    case Mode::kAvx512Fp16:
      return "avx512fp16";
    case Mode::kAuto:
      break;
  }
  return "auto";
}

/// The process-wide mode: parsed once from DNNFI_KERNELS, overridable via
/// set_active_mode. Not thread-safe by design — override before building the
/// plans it should affect, never concurrently with running campaigns.
Mode& mode_ref() {
  static Mode m = [] {
    Mode parsed = Mode::kAuto;
    if (const auto v = env_string("DNNFI_KERNELS")) {
      if (!parse_mode(*v, parsed)) {
        std::fprintf(stderr,
                     "dnnfi: ignoring unknown DNNFI_KERNELS value \"%s\" "
                     "(expected scalar|avx2|avx512|avx512fp16|auto)\n",
                     v->c_str());
        parsed = Mode::kAuto;
      }
    }
    return parsed;
  }();
  return m;
}

#if defined(DNNFI_ENABLE_AVX2_KERNELS)

/// The AVX2 set for T, or null when T has none or the CPU lacks the
/// instructions. FLOAT16 kernels additionally execute F16C converts. The
/// post-MAC kernels (lrn / maxpool / avgpool / softmax) are the AVX2
/// implementations for all three floating types. The single chains are the
/// 1-lane F16C ones for FLOAT16 and the scalar ones otherwise. Fixed point
/// has no AVX2 set (unmeasured): without AVX-512 it runs the scalar
/// reference.
template <typename T>
const KernelSet<T>* avx2_set() {
  if constexpr (std::is_same_v<T, float>) {
    if (!numeric::cpu_has_avx2()) return nullptr;
    static const KernelSet<float> s{
        "avx2", 8, detail::avx2_conv_float, detail::avx2_fc_float,
        detail::avx2_relu_float, detail::avx2_lrn_float,
        detail::avx2_maxpool_float, detail::avx2_avgpool_float,
        detail::avx2_softmax_float, &scalar_chain<float>,
        &scalar_chain_pair<float>};
    return &s;
  } else if constexpr (std::is_same_v<T, double>) {
    if (!numeric::cpu_has_avx2()) return nullptr;
    static const KernelSet<double> s{
        "avx2", 4, detail::avx2_conv_double, detail::avx2_fc_double,
        detail::avx2_relu_double, detail::avx2_lrn_double,
        detail::avx2_maxpool_double, detail::avx2_avgpool_double,
        detail::avx2_softmax_double, &scalar_chain<double>,
        &scalar_chain_pair<double>};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Half>) {
    if (!numeric::cpu_has_avx2() || !numeric::cpu_has_f16c()) return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx2", 8, detail::avx2_conv_half, detail::avx2_fc_half,
        detail::avx2_relu_half, detail::avx2_lrn_half,
        detail::avx2_maxpool_half, detail::avx2_avgpool_half,
        detail::avx2_softmax_half, detail::avx2_chain_half,
        detail::avx2_chain_pair_half};
    return &s;
  } else {
    return nullptr;  // fixed point: avx512 or the scalar reference
  }
}

#else  // !DNNFI_ENABLE_AVX2_KERNELS

template <typename T>
const KernelSet<T>* avx2_set() {
  return nullptr;
}

#endif  // DNNFI_ENABLE_AVX2_KERNELS

#if defined(DNNFI_ENABLE_AVX512_KERNELS) && defined(DNNFI_ENABLE_AVX2_KERNELS)

/// The AVX-512 set for T: 16-lane float, 8-lane double, 16-lane F16C-path
/// Half MAC kernels from the -mavx512f TU, post-MAC kernels shared with the
/// AVX2 TU (every AVX-512 CPU also runs AVX2), as are the single chains
/// (scalar ones for float and double). The three fixed-point types
/// get 8-lane int64 MAC kernels over an 8-lane packed copy and keep the
/// scalar post-MAC kernels and chains. Gated on the full avx512 kernel
/// bundle (F+BW+VL+DQ, see numeric/cpu.h) so Knights-Landing-class parts
/// fall back rather than fault in the Half mask blends.
template <typename T>
const KernelSet<T>* avx512_set() {
  if (!numeric::cpu_has_avx512_kernel_bundle() || !numeric::cpu_has_avx2())
    return nullptr;
  if constexpr (std::is_same_v<T, float>) {
    static const KernelSet<float> s{
        "avx512", 16, detail::avx512_conv_float, detail::avx512_fc_float,
        detail::avx512_relu_float, detail::avx2_lrn_float,
        detail::avx2_maxpool_float, detail::avx2_avgpool_float,
        detail::avx2_softmax_float, &scalar_chain<float>,
        &scalar_chain_pair<float>};
    return &s;
  } else if constexpr (std::is_same_v<T, double>) {
    static const KernelSet<double> s{
        "avx512", 8, detail::avx512_conv_double,
        detail::avx512_fc_double, detail::avx512_relu_double,
        detail::avx2_lrn_double, detail::avx2_maxpool_double,
        detail::avx2_avgpool_double, detail::avx2_softmax_double,
        &scalar_chain<double>, &scalar_chain_pair<double>};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Half>) {
    if (!numeric::cpu_has_f16c()) return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx512", 16, detail::avx512_conv_half, detail::avx512_fc_half,
        detail::avx512_relu_half, detail::avx2_lrn_half,
        detail::avx2_maxpool_half, detail::avx2_avgpool_half,
        detail::avx2_softmax_half, detail::avx2_chain_half,
        detail::avx2_chain_pair_half};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Fx32r26>) {
    static const KernelSet<T> s{
        "avx512", 8, detail::avx512_conv_fx32r26, detail::avx512_fc_fx32r26,
        detail::avx512_relu_fx32r26, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>, &scalar_chain<T>,
        &scalar_chain_pair<T>};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Fx32r10>) {
    static const KernelSet<T> s{
        "avx512", 8, detail::avx512_conv_fx32r10, detail::avx512_fc_fx32r10,
        detail::avx512_relu_fx32r10, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>, &scalar_chain<T>,
        &scalar_chain_pair<T>};
    return &s;
  } else {
    static_assert(std::is_same_v<T, numeric::Fx16r10>);
    static const KernelSet<T> s{
        "avx512", 8, detail::avx512_conv_fx16r10, detail::avx512_fc_fx16r10,
        detail::avx512_relu_fx16r10, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>, &scalar_chain<T>,
        &scalar_chain_pair<T>};
    return &s;
  }
}

#else  // !(DNNFI_ENABLE_AVX512_KERNELS && DNNFI_ENABLE_AVX2_KERNELS)

template <typename T>
const KernelSet<T>* avx512_set() {
  return nullptr;
}

#endif  // DNNFI_ENABLE_AVX512_KERNELS && DNNFI_ENABLE_AVX2_KERNELS

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)

/// The avx512fp16 set: FLOAT16 only. The avx512 Half set with the conv,
/// fc and single chains swapped for native VMULPH / VADDPH ones (the conv
/// and fc over the same 16-lane packed weights); gated on AVX512-FP16 on
/// top of everything the avx512 set needs. Every other type has no such
/// set (null).
template <typename T>
const KernelSet<T>* avx512fp16_set() {
  if constexpr (std::is_same_v<T, numeric::Half>) {
    if (avx512_set<T>() == nullptr || !numeric::cpu_has_avx512fp16())
      return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx512fp16", 16, detail::avx512fp16_conv_half,
        detail::avx512fp16_fc_half, detail::avx512_relu_half,
        detail::avx2_lrn_half, detail::avx2_maxpool_half,
        detail::avx2_avgpool_half, detail::avx2_softmax_half,
        detail::avx512fp16_chain_half, detail::avx512fp16_chain_pair_half};
    return &s;
  } else {
    return nullptr;
  }
}

#else  // !DNNFI_ENABLE_AVX512FP16_KERNELS

template <typename T>
const KernelSet<T>* avx512fp16_set() {
  return nullptr;
}

#endif  // DNNFI_ENABLE_AVX512FP16_KERNELS

}  // namespace

template <typename T>
const KernelSet<T>& scalar_kernels() noexcept {
  static const KernelSet<T> s{"scalar",           0,
                              &scalar_conv<T>,    &scalar_fc<T>,
                              &scalar_relu<T>,    &scalar_lrn<T>,
                              &scalar_maxpool<T>, &scalar_avgpool<T>,
                              &scalar_softmax<T>, &scalar_chain<T>,
                              &scalar_chain_pair<T>};
  return s;
}

template <typename T>
const KernelSet<T>& active_kernels() noexcept {
  switch (mode_ref()) {
    case Mode::kScalar:
      return scalar_kernels<T>();
    case Mode::kAvx2: {
      const KernelSet<T>* s = avx2_set<T>();
      return s ? *s : scalar_kernels<T>();
    }
    case Mode::kAvx512: {
      const KernelSet<T>* s = avx512_set<T>();
      return s ? *s : scalar_kernels<T>();
    }
    case Mode::kAvx512Fp16: {
      // FLOAT16's set; every other type resolves as avx512.
      const KernelSet<T>* s = std::is_same_v<T, numeric::Half>
                                  ? avx512fp16_set<T>()
                                  : avx512_set<T>();
      return s ? *s : scalar_kernels<T>();
    }
    case Mode::kAuto: {
      if (const KernelSet<T>* s = avx512fp16_set<T>()) return *s;
      if (const KernelSet<T>* s = avx512_set<T>()) return *s;
      if (const KernelSet<T>* s = avx2_set<T>()) return *s;
      return scalar_kernels<T>();
    }
  }
  return scalar_kernels<T>();
}

template <typename T>
const KernelSet<T>* kernel_set(std::string_view name) noexcept {
  if (name == "scalar") return &scalar_kernels<T>();
  if (name == "avx2") return avx2_set<T>();
  if (name == "avx512") return avx512_set<T>();
  if (name == "avx512fp16") return avx512fp16_set<T>();
  return nullptr;
}

template <typename T>
std::vector<const char*> registered_names() {
  std::vector<const char*> names{"scalar"};
  if (avx2_set<T>()) names.push_back("avx2");
  if (avx512_set<T>()) names.push_back("avx512");
  if (avx512fp16_set<T>()) names.push_back("avx512fp16");
  return names;
}

bool set_active_mode(std::string_view mode) {
  Mode m;
  if (!parse_mode(mode, m)) return false;
  mode_ref() = m;
  return true;
}

KernelProfile kernel_profile() {
  KernelProfile p;
  p.mode = mode_name(mode_ref());
  p.cpu_avx2 = numeric::cpu_has_avx2();
  p.cpu_f16c = numeric::cpu_has_f16c();
  p.cpu_avx512 = numeric::cpu_has_avx512_kernel_bundle();
  p.cpu_avx512fp16 = numeric::cpu_has_avx512fp16();
#if defined(DNNFI_ENABLE_F16C)
  p.f16c_compiled = true;
#endif
  p.active_float = active_kernels<float>().name;
  p.active_float16 = active_kernels<numeric::Half>().name;
  return p;
}

template <typename T>
void pack_rows(const T* w, std::size_t rows, std::size_t cols,
               std::size_t lanes, T* dst) {
  if (lanes == 0) return;
  const std::size_t blocks = rows / lanes;
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t l = 0; l < lanes; ++l)
        dst[(b * cols + c) * lanes + l] = w[(b * lanes + l) * cols + c];
}

template <typename T>
std::int64_t fixed_act_limit(const T* w, std::size_t rows,
                             std::size_t cols) noexcept {
  constexpr std::int64_t kMax = T::kRawMax;
  if (cols >= static_cast<std::size_t>(kMax)) return 0;
  // cols < RawMax <= 2^31 taps of |w| <= 2^31: no row sum overflows.
  std::int64_t s_w = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    std::int64_t s = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::int64_t v = w[r * cols + c].raw();
      s += v < 0 ? -v : v;
    }
    s_w = std::max(s_w, s);
  }
  if (s_w == 0) return kMax;
  // (RawMax - n) * 2^F <= 2^(31+26): no overflow for any Fixed type.
  return ((kMax - static_cast<std::int64_t>(cols)) << T::kFraction) / s_w;
}

template std::int64_t fixed_act_limit<numeric::Fx32r26>(
    const numeric::Fx32r26*, std::size_t, std::size_t) noexcept;
template std::int64_t fixed_act_limit<numeric::Fx32r10>(
    const numeric::Fx32r10*, std::size_t, std::size_t) noexcept;
template std::int64_t fixed_act_limit<numeric::Fx16r10>(
    const numeric::Fx16r10*, std::size_t, std::size_t) noexcept;

#define DNNFI_KERNELS_INSTANTIATE(T)                                        \
  template const KernelSet<T>& scalar_kernels<T>() noexcept;                \
  template const KernelSet<T>& active_kernels<T>() noexcept;                \
  template const KernelSet<T>* kernel_set<T>(std::string_view) noexcept;    \
  template std::vector<const char*> registered_names<T>();                  \
  template void pack_rows<T>(const T*, std::size_t, std::size_t,            \
                             std::size_t, T*)

DNNFI_KERNELS_INSTANTIATE(double);
DNNFI_KERNELS_INSTANTIATE(float);
DNNFI_KERNELS_INSTANTIATE(numeric::Half);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx32r26);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx32r10);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx16r10);
#undef DNNFI_KERNELS_INSTANTIATE

}  // namespace dnnfi::dnn::kernels
