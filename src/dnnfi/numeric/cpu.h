// One-time CPUID feature probes. The kernel registry (dnn/kernels) and the
// Half conversion dispatch consult these to pick a hardware path at runtime,
// so a single binary runs on any x86-64 and merely gets faster on CPUs that
// have the wider instructions. Each probe is cached after the first call.
#pragma once

namespace dnnfi::numeric {

bool cpu_has_avx() noexcept;
bool cpu_has_avx2() noexcept;
bool cpu_has_f16c() noexcept;
bool cpu_has_avx512f() noexcept;
bool cpu_has_avx512bw() noexcept;
bool cpu_has_avx512vl() noexcept;
bool cpu_has_avx512dq() noexcept;

/// The feature bundle the avx512 kernel set needs: foundation zmm arithmetic
/// (F), 16-bit mask blends for the Half path (BW + VL), and float<->mask
/// conversions (DQ). Skylake-SP and every later AVX-512 server part has all
/// four; Knights Landing (F without BW/VL/DQ) does not and falls back.
inline bool cpu_has_avx512_kernel_bundle() noexcept {
  return cpu_has_avx512f() && cpu_has_avx512bw() && cpu_has_avx512vl() &&
         cpu_has_avx512dq();
}

}  // namespace dnnfi::numeric
