// NEON (aarch64) kernel variants. Compiled with -ffp-contract=off; on
// non-ARM targets this TU collapses to a null-returning stub.
//
// NEON's f64 vectors are 2 lanes, so the canonical 4-stripe blocked
// reduction is carried in TWO registers: accA holds stripes {0,1}
// (j ≡ 0,1 mod 4), accB holds stripes {2,3}. Each 4-element step loads
// two f64x2 pairs, multiplies and adds lane-wise — exactly the stripe
// sums the scalar reference keeps — and the horizontal combine is the
// same (acc0+acc1)+(acc2+acc3) tree. Only vmulq/vaddq are used (no
// vfmaq), so per-element rounding matches scalar mul+add.

#include "core/kernels/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace optselect {
namespace core {
namespace kernels {
namespace {

double WeightedRowSumNeon(const double* row, const double* prob,
                          size_t m) {
  float64x2_t acc_a = vdupq_n_f64(0.0);  // stripes 0,1
  float64x2_t acc_b = vdupq_n_f64(0.0);  // stripes 2,3
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    acc_a = vaddq_f64(acc_a,
                      vmulq_f64(vld1q_f64(prob + j), vld1q_f64(row + j)));
    acc_b = vaddq_f64(
        acc_b, vmulq_f64(vld1q_f64(prob + j + 2), vld1q_f64(row + j + 2)));
  }
  double lanes[4] = {vgetq_lane_f64(acc_a, 0), vgetq_lane_f64(acc_a, 1),
                     vgetq_lane_f64(acc_b, 0), vgetq_lane_f64(acc_b, 1)};
  for (; j < m; ++j) lanes[j & 3] += prob[j] * row[j];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void OverallFromWeightedNeon(const double* relevance,
                             const double* weighted, size_t n,
                             double lambda, double m_scale, double* out) {
  const double rel_scale = (1.0 - lambda) * m_scale;
  const float64x2_t vrel_scale = vdupq_n_f64(rel_scale);
  const float64x2_t vlambda = vdupq_n_f64(lambda);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t r = vld1q_f64(relevance + i);
    float64x2_t w = vld1q_f64(weighted + i);
    vst1q_f64(out + i, vaddq_f64(vmulq_f64(vrel_scale, r),
                                 vmulq_f64(vlambda, w)));
  }
  for (; i < n; ++i) {
    out[i] = CombineOverall(relevance[i], weighted[i], lambda, m_scale);
  }
}

void OverallFromRowsNeon(const double* relevance, const double* rows,
                         const double* prob, size_t n, size_t m,
                         double lambda, double* out) {
  const double m_scale = static_cast<double>(m);
  for (size_t i = 0; i < n; ++i) {
    double w = WeightedRowSumNeon(rows + i * m, prob, m);
    out[i] = CombineOverall(relevance[i], w, lambda, m_scale);
  }
}

const Ops kNeonOps = {
    "neon", WeightedRowSumNeon, OverallFromWeightedNeon,
    OverallFromRowsNeon,
};

}  // namespace

namespace internal {
// NEON is architecturally guaranteed on aarch64.
const Ops* NeonOrNull() { return &kNeonOps; }
}  // namespace internal

}  // namespace kernels
}  // namespace core
}  // namespace optselect

#else  // non-aarch64 build target

namespace optselect {
namespace core {
namespace kernels {
namespace internal {
const Ops* NeonOrNull() { return nullptr; }
}  // namespace internal
}  // namespace kernels
}  // namespace core
}  // namespace optselect

#endif  // __aarch64__
