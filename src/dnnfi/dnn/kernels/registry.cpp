// Kernel registry: mode resolution (DNNFI_KERNELS + CPUID), per-type set
// lookup, the packed-layout transform, and the layer-level dispatch helpers.
// Compiled without SIMD flags: every COMDAT-eligible template this TU
// instantiates (kernel_scalar.h, kernels.h) gets safe baseline codegen.
#include "dnnfi/dnn/kernels/kernels.h"

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
/// implementations for all three floating types. Fixed point has no AVX2
/// set (unmeasured): without AVX-512 it runs the scalar reference.
template <typename T>
const KernelSet<T>* avx2_set() {
  if constexpr (std::is_same_v<T, float>) {
    if (!numeric::cpu_has_avx2()) return nullptr;
    static const KernelSet<float> s{
        "avx2", 8, detail::avx2_conv_float, detail::avx2_fc_float,
        detail::avx2_relu_float, detail::avx2_lrn_float,
        detail::avx2_maxpool_float, detail::avx2_avgpool_float,
        detail::avx2_softmax_float};
    return &s;
  } else if constexpr (std::is_same_v<T, double>) {
    if (!numeric::cpu_has_avx2()) return nullptr;
    static const KernelSet<double> s{
        "avx2", 4, detail::avx2_conv_double, detail::avx2_fc_double,
        detail::avx2_relu_double, detail::avx2_lrn_double,
        detail::avx2_maxpool_double, detail::avx2_avgpool_double,
        detail::avx2_softmax_double};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Half>) {
    if (!numeric::cpu_has_avx2() || !numeric::cpu_has_f16c()) return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx2", 8, detail::avx2_conv_half, detail::avx2_fc_half,
        detail::avx2_relu_half, detail::avx2_lrn_half,
        detail::avx2_maxpool_half, detail::avx2_avgpool_half,
        detail::avx2_softmax_half};
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
/// AVX2 TU (every AVX-512 CPU also runs AVX2). The three fixed-point types
/// get 8-lane int64 MAC kernels that read row-major weights (pack_lanes 0,
/// so there is no packed copy) and keep the scalar post-MAC kernels. Gated
/// on the full avx512 kernel bundle (F+BW+VL+DQ, see numeric/cpu.h) so
/// Knights-Landing-class parts fall back rather than fault in the Half mask
/// blends.
template <typename T>
const KernelSet<T>* avx512_set() {
  if (!numeric::cpu_has_avx512_kernel_bundle() || !numeric::cpu_has_avx2())
    return nullptr;
  if constexpr (std::is_same_v<T, float>) {
    static const KernelSet<float> s{
        "avx512", 16, detail::avx512_conv_float, detail::avx512_fc_float,
        detail::avx512_relu_float, detail::avx2_lrn_float,
        detail::avx2_maxpool_float, detail::avx2_avgpool_float,
        detail::avx2_softmax_float};
    return &s;
  } else if constexpr (std::is_same_v<T, double>) {
    static const KernelSet<double> s{
        "avx512", 8, detail::avx512_conv_double,
        detail::avx512_fc_double, detail::avx512_relu_double,
        detail::avx2_lrn_double, detail::avx2_maxpool_double,
        detail::avx2_avgpool_double, detail::avx2_softmax_double};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Half>) {
    if (!numeric::cpu_has_f16c()) return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx512", 16, detail::avx512_conv_half, detail::avx512_fc_half,
        detail::avx512_relu_half, detail::avx2_lrn_half,
        detail::avx2_maxpool_half, detail::avx2_avgpool_half,
        detail::avx2_softmax_half};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Fx32r26>) {
    static const KernelSet<T> s{
        "avx512", 0, detail::avx512_conv_fx32r26, detail::avx512_fc_fx32r26,
        detail::avx512_relu_fx32r26, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>};
    return &s;
  } else if constexpr (std::is_same_v<T, numeric::Fx32r10>) {
    static const KernelSet<T> s{
        "avx512", 0, detail::avx512_conv_fx32r10, detail::avx512_fc_fx32r10,
        detail::avx512_relu_fx32r10, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>};
    return &s;
  } else {
    static_assert(std::is_same_v<T, numeric::Fx16r10>);
    static const KernelSet<T> s{
        "avx512", 0, detail::avx512_conv_fx16r10, detail::avx512_fc_fx16r10,
        detail::avx512_relu_fx16r10, &scalar_lrn<T>, &scalar_maxpool<T>,
        &scalar_avgpool<T>, &scalar_softmax<T>};
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

/// The avx512fp16 set: FLOAT16 only. The avx512 Half set with the conv and
/// fc swapped for native VMULPH / VADDPH kernels over the same 16-lane
/// packed weights; gated on AVX512-FP16 on top of everything the avx512 set
/// needs. Every other type has no such set (null).
template <typename T>
const KernelSet<T>* avx512fp16_set() {
  if constexpr (std::is_same_v<T, numeric::Half>) {
    if (avx512_set<T>() == nullptr || !numeric::cpu_has_avx512fp16())
      return nullptr;
    static const KernelSet<numeric::Half> s{
        "avx512fp16", 16, detail::avx512fp16_conv_half,
        detail::avx512fp16_fc_half, detail::avx512_relu_half,
        detail::avx2_lrn_half, detail::avx2_maxpool_half,
        detail::avx2_avgpool_half, detail::avx2_softmax_half};
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
                              &scalar_softmax<T>};
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
void conv_forward(const ConvGeom& g, const T* in, const T* w, const T* bias,
                  T* out) {
  const KernelSet<T>& ks = active_kernels<T>();
  (ks.pack_lanes == 0 ? ks.conv : &scalar_conv<T>)(g, g.full(), in, w,
                                                    nullptr, bias, out);
}

template <typename T>
void fc_forward(const FcGeom& g, const T* in, const T* w, const T* bias,
                T* out) {
  const KernelSet<T>& ks = active_kernels<T>();
  (ks.pack_lanes == 0 ? ks.fc : &scalar_fc<T>)(g, in, w, nullptr, bias, out);
}

template <typename T>
void relu_forward(const T* in, T* out, std::size_t n) {
  active_kernels<T>().relu(in, out, n);
}

template <typename T>
void lrn_forward(const LrnGeom& g, const T* in, T* out) {
  active_kernels<T>().lrn(g, g.full(), in, out);
}

template <typename T>
void maxpool_forward(const PoolGeom& g, const T* in, T* out) {
  active_kernels<T>().maxpool(g, g.full(), in, out);
}

template <typename T>
void avgpool_forward(const T* in, T* out, std::size_t channels,
                     std::size_t plane) {
  active_kernels<T>().avgpool(in, out, channels, plane);
}

template <typename T>
void softmax_forward(const T* in, T* out, std::size_t n) {
  active_kernels<T>().softmax(in, out, n);
}

#define DNNFI_KERNELS_INSTANTIATE(T)                                        \
  template const KernelSet<T>& scalar_kernels<T>() noexcept;                \
  template const KernelSet<T>& active_kernels<T>() noexcept;                \
  template const KernelSet<T>* kernel_set<T>(std::string_view) noexcept;    \
  template std::vector<const char*> registered_names<T>();                  \
  template void pack_rows<T>(const T*, std::size_t, std::size_t,            \
                             std::size_t, T*);                              \
  template void conv_forward<T>(const ConvGeom&, const T*, const T*,        \
                                const T*, T*);                              \
  template void fc_forward<T>(const FcGeom&, const T*, const T*, const T*,  \
                              T*);                                          \
  template void relu_forward<T>(const T*, T*, std::size_t);                 \
  template void lrn_forward<T>(const LrnGeom&, const T*, T*);               \
  template void maxpool_forward<T>(const PoolGeom&, const T*, T*);          \
  template void avgpool_forward<T>(const T*, T*, std::size_t, std::size_t); \
  template void softmax_forward<T>(const T*, T*, std::size_t)

DNNFI_KERNELS_INSTANTIATE(double);
DNNFI_KERNELS_INSTANTIATE(float);
DNNFI_KERNELS_INSTANTIATE(numeric::Half);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx32r26);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx32r10);
DNNFI_KERNELS_INSTANTIATE(numeric::Fx16r10);
#undef DNNFI_KERNELS_INSTANTIATE

}  // namespace dnnfi::dnn::kernels
