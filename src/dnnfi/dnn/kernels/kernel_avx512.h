// Entry points of the AVX-512 kernel TUs (see src/CMakeLists.txt). Only the
// registry references these, and only after numeric/cpu.h confirms the CPU
// has the full avx512 kernel bundle (cpu_has_avx512_kernel_bundle).
//
// kernel_avx512.cpp (-mavx512f -mavx512bw -mavx512vl -mavx512dq -mf16c
// -ffp-contract=off): the avx512 set's 16-lane float / 8-lane double /
// 16-lane F16C-path Half and 8-lane int64 fixed-point MAC kernels, the same
// kernel_mac_body.h body as the AVX2 set (remainder rows included)
// instantiated over zmm traits. The set's post-MAC ops (lrn / maxpool /
// avgpool / softmax) are shared with the AVX2 TU for float, double and
// Half — they are already vector-width-bound by pow/exp and gathers, and
// every AVX-512 CPU runs AVX2 code at full speed — and stay the scalar
// reference for fixed point.
//
// kernel_avx512fp16.cpp (the same flags plus -mavx512fp16): the
// avx512fp16 set's Half conv and fc, native VMULPH / VADDPH over the same
// 16-lane packed weights, bit-identical to the F16C path (the argument is
// in that TU). Reached only when cpu_has_avx512fp16() also holds; the set
// reuses avx512_relu_half and the AVX2 post-MAC ops.
#pragma once

#include <cstddef>

#include "dnnfi/dnn/kernels/kernels.h"

#if defined(DNNFI_ENABLE_AVX512_KERNELS)

namespace dnnfi::dnn::kernels::detail {

void avx512_conv_float(const ConvGeom&, const Region&, const float*,
                       const float*, const float*, const float*, float*);
void avx512_fc_float(const FcGeom&, const float*, const float*, const float*,
                     const float*, float*);
void avx512_relu_float(const float*, float*, std::size_t);

void avx512_conv_double(const ConvGeom&, const Region&, const double*,
                        const double*, const double*, const double*,
                        double*);
void avx512_fc_double(const FcGeom&, const double*, const double*,
                      const double*, const double*, double*);
void avx512_relu_double(const double*, double*, std::size_t);

void avx512_conv_half(const ConvGeom&, const Region&, const numeric::Half*,
                      const numeric::Half*, const numeric::Half*,
                      const numeric::Half*, numeric::Half*);
void avx512_fc_half(const FcGeom&, const numeric::Half*,
                    const numeric::Half*, const numeric::Half*,
                    const numeric::Half*, numeric::Half*);
void avx512_relu_half(const numeric::Half*, numeric::Half*, std::size_t);

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)
void avx512fp16_conv_half(const ConvGeom&, const Region&,
                          const numeric::Half*, const numeric::Half*,
                          const numeric::Half*, const numeric::Half*,
                          numeric::Half*);
void avx512fp16_fc_half(const FcGeom&, const numeric::Half*,
                        const numeric::Half*, const numeric::Half*,
                        const numeric::Half*, numeric::Half*);
#endif

// Fixed point: 8 int64 lanes, row-major weights (the packed argument is
// ignored; the sets register pack_lanes = 0).
#define DNNFI_AVX512_FIXED_DECL(Fx, name)                                    \
  void avx512_conv_##name(const ConvGeom&, const Region&,                    \
                          const numeric::Fx*, const numeric::Fx*,            \
                          const numeric::Fx*, const numeric::Fx*,            \
                          numeric::Fx*);                                     \
  void avx512_fc_##name(const FcGeom&, const numeric::Fx*,                   \
                        const numeric::Fx*, const numeric::Fx*,              \
                        const numeric::Fx*, numeric::Fx*);                   \
  void avx512_relu_##name(const numeric::Fx*, numeric::Fx*, std::size_t)

DNNFI_AVX512_FIXED_DECL(Fx32r26, fx32r26);
DNNFI_AVX512_FIXED_DECL(Fx32r10, fx32r10);
DNNFI_AVX512_FIXED_DECL(Fx16r10, fx16r10);
#undef DNNFI_AVX512_FIXED_DECL

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
