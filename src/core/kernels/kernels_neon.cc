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

const Ops kNeonOps = {"neon", WeightedRowSumNeon};

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
