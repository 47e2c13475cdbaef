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

void OverallFromWeightedAvx2(const double* relevance,
                             const double* weighted, size_t n,
                             double lambda, double m_scale, double* out) {
  // Elementwise — no reduction, so lanes are independent and identical
  // to scalar by construction. The two scale factors are computed once
  // with the same expressions CombineOverall uses.
  const double rel_scale = (1.0 - lambda) * m_scale;
  const __m256d vrel_scale = _mm256_set1_pd(rel_scale);
  const __m256d vlambda = _mm256_set1_pd(lambda);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d r = _mm256_loadu_pd(relevance + i);
    __m256d w = _mm256_loadu_pd(weighted + i);
    __m256d v = _mm256_add_pd(_mm256_mul_pd(vrel_scale, r),
                              _mm256_mul_pd(vlambda, w));
    _mm256_storeu_pd(out + i, v);
  }
  for (; i < n; ++i) {
    out[i] = CombineOverall(relevance[i], weighted[i], lambda, m_scale);
  }
}

void OverallFromRowsAvx2(const double* relevance, const double* rows,
                         const double* prob, size_t n, size_t m,
                         double lambda, double* out) {
  const double m_scale = static_cast<double>(m);
  for (size_t i = 0; i < n; ++i) {
    double w = WeightedRowSumAvx2(rows + i * m, prob, m);
    out[i] = CombineOverall(relevance[i], w, lambda, m_scale);
  }
}

const Ops kAvx2Ops = {
    "avx2", WeightedRowSumAvx2, OverallFromWeightedAvx2,
    OverallFromRowsAvx2,
};

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
