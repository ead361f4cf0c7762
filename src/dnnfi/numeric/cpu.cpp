#include "dnnfi/numeric/cpu.h"

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

}  // namespace dnnfi::numeric
