// Native AVX512-FP16 binary16 arithmetic against the F16C float round trip
// (tests/fp16_arith.cpp): the two facts the avx512fp16 kernel set's
// bit-identity rests on (see kernel_avx512fp16.cpp) — an exact float
// product rounded once to half, and a float sum whose double rounding
// float -> half never differs from one rounding. Shared by test_kernels
// (a strided subset, tier 1) and test_fp16_exhaustive (all 2^32 pairs).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "dnnfi/numeric/cpu.h"

namespace dnnfi::test {

#if defined(DNNFI_TEST_FP16_ARITH)
/// Operand pairs (a, b), a in [a0, a1) and b = a % stride + k * stride,
/// whose native product or sum differs from the F16C round trip, both under
/// the canonical-NaN rule. Pairs of NaNs with opposite signs are skipped:
/// which one survives is kernels.h's documented hole. stride is a power of
/// two no larger than 4096.
/// Compiled with -mavx512fp16: call only when cpu_has_avx512fp16().
std::uint64_t fp16_native_mismatches(std::uint32_t a0, std::uint32_t a1,
                                     std::uint32_t stride);
#endif

/// Expects no mismatch over every first operand and 65536 / `stride`
/// second operands each, split over up to four threads. Skips the calling
/// test where the build or the CPU has no AVX512-FP16.
inline void expect_native_fp16_matches_round_trip(std::uint32_t stride) {
#if defined(DNNFI_TEST_FP16_ARITH)
  if (!numeric::cpu_has_avx512fp16())
    GTEST_SKIP() << "CPU lacks avx512fp16";
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::uint64_t> bad(threads, 0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&bad, t, threads, stride] {
      bad[t] = fp16_native_mismatches(65536 * t / threads,
                                      65536 * (t + 1) / threads, stride);
    });
  for (auto& th : pool) th.join();
  std::uint64_t total = 0;
  for (const std::uint64_t b : bad) total += b;
  EXPECT_EQ(total, 0u) << "of " << (std::uint64_t{65536} * 65536 / stride)
                       << " operand pairs x {mul, add}";
#else
  (void)stride;
  GTEST_SKIP() << "built without -mavx512fp16";
#endif
}

}  // namespace dnnfi::test
