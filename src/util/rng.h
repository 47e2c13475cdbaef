// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (log synthesis, corpus
// synthesis, sampling) draws from util::Rng seeded explicitly, so that any
// experiment is reproducible bit-for-bit from its seed. The generator is
// xoshiro256**, seeded via SplitMix64, which is fast, tiny, and has no
// global state — one instance per generator object.

#ifndef OPTSELECT_UTIL_RNG_H_
#define OPTSELECT_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace optselect {
namespace util {

/// xoshiro256** PRNG with convenience sampling helpers.
class Rng {
 public:
  /// Seeds the state from `seed` via SplitMix64 expansion.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Returns the next raw 64-bit output.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Returns weights.size() - 1 on degenerate (all-zero) input.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of the container in place.
  template <typename Container>
  void Shuffle(Container* c) {
    if (c->size() < 2) return;
    for (size_t i = c->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Uniform(i + 1));
      using std::swap;
      swap((*c)[i], (*c)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_RNG_H_
