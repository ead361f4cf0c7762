// Mitigation techniques: SED learning/detection/metrics, SLH design-space
// model, and the ECC comparison model.
#include <gtest/gtest.h>

#include <cmath>

#include "dnnfi/mitigate/ecc.h"
#include "dnnfi/mitigate/sed.h"
#include "dnnfi/mitigate/slh.h"

namespace dnnfi::mitigate {
namespace {

TEST(Sed, CushionWidensBounds) {
  SedDetector d({{-10.0, 20.0}}, 0.10);
  EXPECT_FALSE(d.anomalous(1, -10.9));  // within -11
  EXPECT_TRUE(d.anomalous(1, -11.1));
  EXPECT_FALSE(d.anomalous(1, 21.9));  // within 22
  EXPECT_TRUE(d.anomalous(1, 22.1));
}

TEST(Sed, NanIsAlwaysAnomalous) {
  SedDetector d({{-1.0, 1.0}}, 0.10);
  EXPECT_TRUE(d.anomalous(1, std::nan("")));
}

TEST(Sed, PerBlockBounds) {
  SedDetector d({{-1.0, 1.0}, {-100.0, 100.0}}, 0.0);
  EXPECT_TRUE(d.anomalous(1, 50.0));
  EXPECT_FALSE(d.anomalous(2, 50.0));
  EXPECT_THROW(d.anomalous(3, 0.0), ContractViolation);
  EXPECT_THROW(d.anomalous(0, 0.0), ContractViolation);
}

TEST(Sed, PredicateAdapterMatchesMethod) {
  SedDetector d({{-2.0, 2.0}}, 0.10);
  const auto pred = d.as_predicate();
  for (double v : {-3.0, -1.0, 0.0, 2.1, 2.3}) {
    EXPECT_EQ(pred(1, v), d.anomalous(1, v));
  }
}

TEST(Sed, EvaluationMatchesPaperDefinitions) {
  fault::CampaignResult r;
  r.trials.resize(10);
  // 4 SDCs, 3 of them detected; 6 benign, 1 falsely detected.
  for (int i = 0; i < 4; ++i) r.trials[static_cast<std::size_t>(i)].outcome.sdc1 = true;
  r.trials[0].detected = r.trials[1].detected = r.trials[2].detected = true;
  r.trials[5].detected = true;  // benign false alarm
  const auto ev = evaluate_sed(r);
  EXPECT_DOUBLE_EQ(ev.recall.p, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(ev.precision.p, 1.0 - 1.0 / 10.0);
  EXPECT_EQ(ev.detections, 4U);
  EXPECT_EQ(ev.sdc_count, 4U);
}

TEST(Slh, Table9DesignPoints) {
  const auto& d = latch_designs();
  ASSERT_EQ(d.size(), 4U);
  EXPECT_EQ(d[0].name, "Baseline");
  EXPECT_DOUBLE_EQ(d[1].area, 1.15);
  EXPECT_DOUBLE_EQ(d[1].fit_reduction, 6.3);
  EXPECT_DOUBLE_EQ(d[2].area, 2.0);
  EXPECT_DOUBLE_EQ(d[2].fit_reduction, 37.0);
  EXPECT_DOUBLE_EQ(d[3].area, 3.5);
  EXPECT_DOUBLE_EQ(d[3].fit_reduction, 1e6);
}

TEST(Slh, PerfectCurveSortsMostSensitiveFirst) {
  const BitProfile fit = {0.1, 5.0, 0.2, 0.0};
  const auto curve = perfect_protection_curve(fit);
  ASSERT_EQ(curve.size(), 5U);
  EXPECT_DOUBLE_EQ(curve[0].fit_removed_fraction, 0.0);
  // First protected latch is the 5.0 one: 5/5.3 of the FIT.
  EXPECT_NEAR(curve[1].fit_removed_fraction, 5.0 / 5.3, 1e-12);
  EXPECT_DOUBLE_EQ(curve[4].fit_removed_fraction, 1.0);
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].fit_removed_fraction, curve[i - 1].fit_removed_fraction);
}

TEST(Slh, BetaHigherForSkewedProfiles) {
  // Uniform sensitivity -> low beta; one dominant latch -> high beta.
  BitProfile uniform(16, 1.0);
  BitProfile skewed(16, 0.01);
  skewed[3] = 10.0;
  const double b_uniform = fit_beta(perfect_protection_curve(uniform));
  const double b_skewed = fit_beta(perfect_protection_curve(skewed));
  EXPECT_GT(b_skewed, b_uniform);
  EXPECT_GT(b_skewed, 3.0);
}

TEST(Slh, SingleTechniqueCannotExceedItsStrength) {
  const BitProfile fit = {1.0, 1.0, 1.0, 1.0};
  const auto& rcc = latch_designs()[1];
  const auto plan = harden_single(fit, rcc, 100.0);
  EXPECT_FALSE(plan.feasible);  // RCC alone gives at most 6.3x
  EXPECT_NEAR(plan.achieved_reduction, 6.3, 1e-9);
  EXPECT_NEAR(plan.area_overhead, 0.15, 1e-9);  // everything protected
}

TEST(Slh, SingleTechniqueStopsAtTarget) {
  // One dominant latch: protecting it alone should reach a 2x reduction.
  BitProfile fit = {100.0, 1.0, 1.0, 1.0};
  const auto& tmr = latch_designs()[3];
  const auto plan = harden_single(fit, tmr, 2.0);
  EXPECT_TRUE(plan.feasible);
  // Only the dominant latch hardened: overhead = 2.5/4.
  EXPECT_NEAR(plan.area_overhead, 2.5 / 4.0, 1e-9);
  EXPECT_GE(plan.achieved_reduction, 2.0);
}

TEST(Slh, MultiMeetsTargetsSingleCannot) {
  BitProfile fit(32, 0.0);
  for (std::size_t i = 0; i < fit.size(); ++i)
    fit[i] = std::exp(-static_cast<double>(i));  // strong asymmetry
  const auto plan = harden_multi(fit, 100.0);
  EXPECT_TRUE(plan.feasible);
  EXPECT_GE(plan.achieved_reduction, 100.0);
  EXPECT_LT(plan.area_overhead, 0.6);
}

TEST(Slh, MultiIsNoWorseThanAnySingleTechnique) {
  BitProfile fit(16, 0.0);
  for (std::size_t i = 0; i < fit.size(); ++i)
    fit[i] = 1.0 / (1.0 + static_cast<double>(i * i));
  for (const double target : {2.0, 5.0, 20.0}) {
    const auto multi = harden_multi(fit, target);
    ASSERT_TRUE(multi.feasible);
    for (std::size_t d = 1; d < latch_designs().size(); ++d) {
      const auto single = harden_single(fit, latch_designs()[d], target);
      if (single.feasible) {
        EXPECT_LE(multi.area_overhead, single.area_overhead + 1e-9)
            << "target " << target << " design " << latch_designs()[d].name;
      }
    }
  }
}

TEST(Slh, MultiOverheadMonotoneInTarget) {
  BitProfile fit(24, 0.0);
  for (std::size_t i = 0; i < fit.size(); ++i)
    fit[i] = std::exp(-0.5 * static_cast<double>(i));
  double prev = -1;
  for (const double target : {1.5, 3.0, 10.0, 50.0, 200.0}) {
    const auto plan = harden_multi(fit, target);
    EXPECT_GE(plan.area_overhead, prev);
    prev = plan.area_overhead;
  }
}

TEST(Slh, ZeroSensitivityBitsAreNeverHardened) {
  BitProfile fit = {5.0, 0.0, 0.0, 0.0};
  const auto plan = harden_multi(fit, 1000.0);
  EXPECT_TRUE(plan.feasible);
  for (std::size_t i = 1; i < fit.size(); ++i)
    EXPECT_EQ(plan.design_per_bit[i], 0U) << "bit " << i;
}

TEST(Ecc, SecDedGeometry) {
  EXPECT_EQ(secded(64).check_bits, 8U);   // 7 Hamming + 1 parity
  EXPECT_EQ(secded(32).check_bits, 7U);
  EXPECT_EQ(secded(16).check_bits, 6U);
  EXPECT_EQ(secded(8).check_bits, 5U);
  EXPECT_NEAR(secded(64).overhead_fraction(), 0.125, 1e-12);
  // Narrow words pay proportionally more — the paper's argument against
  // naive ECC on small per-PE buffers.
  EXPECT_GT(secded(16).overhead_fraction(), secded(64).overhead_fraction());
}

TEST(Ecc, ResidualFitIsSecondOrderSmall) {
  const double residual = ecc_residual_fit(100.0, 16, 24.0);
  EXPECT_GT(residual, 0.0);
  EXPECT_LT(residual, 1e-4);  // double-hit in one word within a day: tiny
  EXPECT_THROW(ecc_residual_fit(1.0, 16, 0.0), ContractViolation);
}

}  // namespace
}  // namespace dnnfi::mitigate
