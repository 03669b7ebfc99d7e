#include "common/rng.h"

#include <cmath>

namespace rlqvo {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& si : s_) si = SplitMix64(&sm);
  has_cached_gaussian_ = false;
}

uint64_t Rng::NextUint64() {
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

void Rng::Discard(uint64_t count) {
  for (; count > 0; --count) NextUint64();
}

uint64_t Rng::NextBounded(uint64_t bound) {
  RLQVO_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  RLQVO_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

void Rng::FillBernoulli(double p, double value, std::span<double> out) {
  for (double& v : out) v = NextDouble() < p ? value : 0.0;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

size_t Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    RLQVO_DCHECK(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) return weights.size();
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace rlqvo
