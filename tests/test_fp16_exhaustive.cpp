// Every one of the 2^32 binary16 operand pairs: native AVX512-FP16 multiply
// and add against the F16C float round trip (see fp16_arith.h). Its own
// binary so ctest can label it slow; test_kernels runs a strided subset in
// tier 1.
#include "fp16_arith.h"

namespace dnnfi::test {
namespace {

TEST(KernelFp16Arith, NativeMulAddMatchF16cRoundTripExhaustive) {
  expect_native_fp16_matches_round_trip(1);
}

}  // namespace
}  // namespace dnnfi::test
