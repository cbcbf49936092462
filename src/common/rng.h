#ifndef HYPPO_COMMON_RNG_H_
#define HYPPO_COMMON_RNG_H_

#include <cstdint>
#include <cmath>
#include <vector>

namespace hyppo {

/// \brief Deterministic xoshiro256** pseudo-random generator.
///
/// All stochastic components (dataset generators, workload generators,
/// stochastic operators) take an explicit seed so that every experiment in
/// the repository is reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Uniform integer in [0, n). Requires n > 0. Consumes exactly one
  /// Next(), so a copy of the generator replays a run of draws, and
  /// skipping k draws is k calls of Next().
  uint64_t NextBelow(uint64_t n) { return Next() % n; }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBelow(
                    static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Samples an index from a discrete distribution given by non-negative
  /// weights. Returns weights.size() - 1 on numerical fall-through.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles a vector in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Exponential draw with the given rate.
  double Exponential(double rate);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace hyppo

#endif  // HYPPO_COMMON_RNG_H_
