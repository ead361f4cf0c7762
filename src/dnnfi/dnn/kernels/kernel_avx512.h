// Entry points of the AVX-512 kernel TU (kernel_avx512.cpp, compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512dq -mf16c -ffp-contract=off; see
// src/CMakeLists.txt). Only the registry references these, and only after
// numeric/cpu.h confirms the CPU has the full avx512 kernel bundle
// (cpu_has_avx512_kernel_bundle). All functions implement the full KernelSet
// contract: 16-lane float / 8-lane double / 16-lane F16C-path Half MAC
// kernels, the same kernel_mac_body.h body as the AVX2 set (remainder rows
// included) instantiated over zmm traits. The avx512
// set's post-MAC ops (lrn / maxpool / avgpool / softmax) are shared with the
// AVX2 TU — they are already vector-width-bound by pow/exp and gathers, and
// every AVX-512 CPU runs AVX2 code at full speed.
#pragma once

#include <cstddef>

#include "dnnfi/dnn/kernels/kernels.h"

#if defined(DNNFI_ENABLE_AVX512_KERNELS)

namespace dnnfi::dnn::kernels::detail {

void avx512_conv_float(const ConvGeom&, const float*, const float*,
                       const float*, const float*, float*);
void avx512_fc_float(const FcGeom&, const float*, const float*, const float*,
                     const float*, float*);
void avx512_relu_float(const float*, float*, std::size_t);

void avx512_conv_double(const ConvGeom&, const double*, const double*,
                        const double*, const double*, double*);
void avx512_fc_double(const FcGeom&, const double*, const double*,
                      const double*, const double*, double*);
void avx512_relu_double(const double*, double*, std::size_t);

void avx512_conv_half(const ConvGeom&, const numeric::Half*,
                      const numeric::Half*, const numeric::Half*,
                      const numeric::Half*, numeric::Half*);
void avx512_fc_half(const FcGeom&, const numeric::Half*,
                    const numeric::Half*, const numeric::Half*,
                    const numeric::Half*, numeric::Half*);
void avx512_relu_half(const numeric::Half*, numeric::Half*, std::size_t);

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
