// AVX2 kernel variants. Compiled with -mavx2 -ffp-contract=off on
// x86-64 (see CMakeLists); on other architectures this TU collapses to
// a null-returning stub so the dispatcher never sees it.
//
// Bit-identity with the scalar reference (asserted by kernels_test and
// the oracle differential suite) comes from two invariants:
//   * reductions carry one stripe per lane in the canonical blocked
//     order — lane l of the 4-lane accumulator holds exactly the j ≡ l
//     (mod 4) products, and the horizontal combine is the same
//     (acc0+acc1)+(acc2+acc3) tree the scalar path uses;
//   * only explicit _mm256_mul_pd / _mm256_add_pd are used — no FMA
//     intrinsics — so per-element rounding matches scalar mul+add.

#include "core/kernels/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#if defined(__AVX2__)

#include <immintrin.h>

namespace optselect {
namespace core {
namespace kernels {
namespace {

double WeightedRowSumAvx2(const double* row, const double* prob,
                          size_t m) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    __m256d p = _mm256_loadu_pd(prob + j);
    __m256d r = _mm256_loadu_pd(row + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(p, r));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  // Tail elements continue their stripes: the vector loop exits at a
  // multiple of 4, so j & 3 walks 0,1,2 — the same lanes the products
  // would have landed in with one more full vector.
  for (; j < m; ++j) lanes[j & 3] += prob[j] * row[j];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

const Ops kAvx2Ops = {"avx2", WeightedRowSumAvx2};

}  // namespace

namespace internal {
const Ops* Avx2OrNull() {
  // Build target supports AVX2 codegen; gate on the running CPU.
  return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}
}  // namespace internal

}  // namespace kernels
}  // namespace core
}  // namespace optselect

#else  // x86-64 but the per-file -mavx2 flag was not applied

namespace optselect {
namespace core {
namespace kernels {
namespace internal {
const Ops* Avx2OrNull() { return nullptr; }
}  // namespace internal
}  // namespace kernels
}  // namespace core
}  // namespace optselect

#endif  // __AVX2__
#else  // non-x86 build target

namespace optselect {
namespace core {
namespace kernels {
namespace internal {
const Ops* Avx2OrNull() { return nullptr; }
}  // namespace internal
}  // namespace kernels
}  // namespace core
}  // namespace optselect

#endif  // __x86_64__
