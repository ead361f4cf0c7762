#include "dnnfi/numeric/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace dnnfi::numeric {

namespace {

struct CpuFeatures {
  bool avx = false;
  bool avx2 = false;
  bool f16c = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512dq = false;
  bool avx512fp16 = false;

  CpuFeatures() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    avx = __builtin_cpu_supports("avx") != 0;
    avx2 = __builtin_cpu_supports("avx2") != 0;
    f16c = __builtin_cpu_supports("f16c") != 0;
    avx512f = __builtin_cpu_supports("avx512f") != 0;
    avx512bw = __builtin_cpu_supports("avx512bw") != 0;
    avx512vl = __builtin_cpu_supports("avx512vl") != 0;
    avx512dq = __builtin_cpu_supports("avx512dq") != 0;
    // CPUID.(EAX=7,ECX=0):EDX bit 23, read directly: older compilers'
    // __builtin_cpu_supports has no "avx512fp16" name. The avx512f probe
    // supplies the OS check (XCR0 enables the opmask and zmm state that
    // every EVEX instruction needs).
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    avx512fp16 = avx512f &&
                 __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
                 ((edx >> 23) & 1U) != 0;
#endif
  }
};

const CpuFeatures& features() noexcept {
  static const CpuFeatures f;
  return f;
}

}  // namespace

bool cpu_has_avx() noexcept { return features().avx; }
bool cpu_has_avx2() noexcept { return features().avx2; }
bool cpu_has_f16c() noexcept { return features().f16c; }
bool cpu_has_avx512f() noexcept { return features().avx512f; }
bool cpu_has_avx512bw() noexcept { return features().avx512bw; }
bool cpu_has_avx512vl() noexcept { return features().avx512vl; }
bool cpu_has_avx512dq() noexcept { return features().avx512dq; }
bool cpu_has_avx512fp16() noexcept { return features().avx512fp16; }

}  // namespace dnnfi::numeric
