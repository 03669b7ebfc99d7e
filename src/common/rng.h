#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace rlqvo {

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in the library takes an explicit seed so that
/// datasets, query workloads, initialisation and training are reproducible
/// across platforms (std::mt19937 distributions are not portable across
/// standard library implementations; this generator is self-contained).
class Rng {
 public:
  /// Seeds the generator; the seed is expanded with SplitMix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds in place.
  void Seed(uint64_t seed);

  /// \brief Next raw 64-bit value.
  uint64_t NextUint64();

  /// \brief Advances past `count` raw draws, leaving the state that
  /// `count` NextUint64() calls would leave (the cached Gaussian is kept).
  void Discard(uint64_t count);

  /// \brief Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief Uniform float in [lo, hi).
  double NextUniform(double lo, double hi);

  /// \brief Standard normal via Box-Muller.
  double NextGaussian();

  /// \brief Bernoulli trial with probability p.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

  /// \brief out[i] = NextBool(p) ? value : 0.0 for i in order: the draws
  /// of out.size() NextBool calls, in one call (the generator inlines).
  void FillBernoulli(double p, double value, std::span<double> out);

  /// \brief Samples an index from an (unnormalised, non-negative) weight
  /// vector. Returns weights.size() only if the total weight is zero.
  size_t SampleDiscrete(const std::vector<double>& weights);

  /// \brief Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = NextBounded(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    RLQVO_CHECK(!v.empty());
    return v[NextBounded(v.size())];
  }

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace rlqvo
