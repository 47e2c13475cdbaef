#include "util/rng.h"

#include <cassert>

namespace optselect {
namespace util {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to kill modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? Next() : Uniform(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0);
  if (total <= 0.0) return weights.size() - 1;
  double x = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    double w = weights[i] > 0 ? weights[i] : 0;
    if (x < w) return i;
    x -= w;
  }
  return weights.size() - 1;
}

}  // namespace util
}  // namespace optselect
