// Scalar reference kernels + one-time dispatch. Compiled with
// -ffp-contract=off (see CMakeLists): the scalar table is the oracle
// every SIMD variant is asserted bit-identical against, so its rounding
// must not depend on whether the compiler fused a mul+add.

#include "core/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace optselect {
namespace core {
namespace kernels {

namespace {

double WeightedRowSumScalar(const double* row, const double* prob,
                            size_t m) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < m; ++j) acc[j & 3] += prob[j] * row[j];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

const Ops kScalarOps = {"scalar", WeightedRowSumScalar};

// GatherDot's lane types (GCC/Clang vector extensions: SSE2 on x86-64,
// NEON on aarch64). A double compare yields a long long lane mask.
typedef double F64x2 __attribute__((vector_size(16)));
typedef long long I64x2 __attribute__((vector_size(16)));

/// a·w where a is non-zero (NaN included) and exactly +0.0 where a is
/// ±0.0: the product is ANDed with the mask of a compare, so no branch
/// depends on a. The upper lane computes a discarded 0·0.
inline double MaskedProduct(double a, double w) {
  const F64x2 av = {a, 0.0};
  const F64x2 product = av * F64x2{w, 0.0};
  const I64x2 keep = av != F64x2{0.0, 0.0};
  return reinterpret_cast<F64x2>(reinterpret_cast<I64x2>(product) & keep)[0];
}

/// Resolves the dispatch target once. Unknown or unavailable explicit
/// requests warn to stderr and fall back to scalar — a test asking for
/// a specific target should fail loudly in its assertions, not crash
/// the process.
const Ops* Choose() {
  const char* env = std::getenv("OPTSELECT_KERNELS");
  const char* want = (env != nullptr && env[0] != '\0') ? env : "auto";
  if (std::strcmp(want, "scalar") == 0) return &kScalarOps;
  if (std::strcmp(want, "avx2") == 0) {
    const Ops* ops = internal::Avx2OrNull();
    if (ops != nullptr) return ops;
    std::fprintf(stderr,
                 "optselect: OPTSELECT_KERNELS=avx2 unavailable on this "
                 "CPU/build; using scalar kernels\n");
    return &kScalarOps;
  }
  if (std::strcmp(want, "neon") == 0) {
    const Ops* ops = internal::NeonOrNull();
    if (ops != nullptr) return ops;
    std::fprintf(stderr,
                 "optselect: OPTSELECT_KERNELS=neon unavailable on this "
                 "CPU/build; using scalar kernels\n");
    return &kScalarOps;
  }
  if (std::strcmp(want, "auto") != 0) {
    std::fprintf(stderr,
                 "optselect: unknown OPTSELECT_KERNELS='%s'; using "
                 "scalar kernels\n",
                 want);
    return &kScalarOps;
  }
  if (const Ops* ops = internal::Avx2OrNull()) return ops;
  if (const Ops* ops = internal::NeonOrNull()) return ops;
  return &kScalarOps;
}

}  // namespace

const Ops& Scalar() { return kScalarOps; }

const Ops& Active() {
  static const Ops* ops = Choose();
  return *ops;
}

const char* ActiveName() { return Active().name; }

double GatherDot(const double* dense, size_t dense_size,
                 const text::TermVector::Entry* pairs, size_t count) {
  double dot = 0.0;
  for (size_t i = 0; i < count; ++i) {
    if (pairs[i].first >= dense_size) break;
    dot += MaskedProduct(dense[pairs[i].first], pairs[i].second);
  }
  return dot;
}

double GatherDot(const double* dense, size_t dense_size,
                 const uint32_t* terms, const double* weights,
                 size_t count) {
  double dot = 0.0;
  for (size_t i = 0; i < count; ++i) {
    if (terms[i] >= dense_size) break;
    dot += MaskedProduct(dense[terms[i]], weights[i]);
  }
  return dot;
}

}  // namespace kernels
}  // namespace core
}  // namespace optselect
