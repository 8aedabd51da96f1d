// Deterministic, splittable random number generation.
//
// Every stochastic component takes an explicit Rng. Streams are derived from
// a root seed with Fork(tag), so that e.g. each simulated machine gets an
// independent stream whose output does not depend on the order in which other
// machines are simulated. The generator is xoshiro256++ seeded via SplitMix64.
// All distributions are implemented here (std::normal_distribution's output
// is implementation-defined).
//
// Which draws are reproducible across platforms. These are built from IEEE
// basic operations only (+ - * /, sqrt, comparisons, conversions): the
// integer stream, the uniforms, Normal (a 256-layer ziggurat), LogNormal,
// Exponential, Poisson, Bernoulli, Gamma with shape >= 1 and Beta with both
// parameters >= 1. Their exp and log are the in-repo kernels IeeeExp and
// IeeeLog below. Their bytes do not depend on the host libm, provided the
// build does not contract a*b+c into a fused multiply-add (src/CMakeLists.txt
// pins -ffp-contract=off). Still libm-bound: BoundedPareto, Gamma and Beta
// with a parameter < 1 (std::pow), and Geometric (std::log1p). Callers that
// apply libm to drawn values, such as the diurnal std::sin in the usage model
// and the job sampler, are libm-bound the same way.

#ifndef CRF_UTIL_RNG_H_
#define CRF_UTIL_RNG_H_

#include <array>
#include <cstdint>

namespace crf {

// SplitMix64 step; used for seeding and for hashing stream tags.
uint64_t SplitMix64(uint64_t& state);

// exp(x) and log(x) from IEEE basic operations only, so their results do not
// depend on the host libm. Both stay within about an ulp of the correctly
// rounded value (the tests bound the relative error by 1e-12). IeeeExp
// returns +inf above ~709.78 and 0 below ~-745.13; IeeeLog returns -inf at 0,
// NaN below 0 and +inf at +inf.
double IeeeExp(double x);
double IeeeLog(double x);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Returns a generator whose stream is a pure function of (this seed, tag):
  // forking with the same tag twice yields identical streams, and streams
  // with different tags are statistically independent.
  Rng Fork(uint64_t tag) const;

  // Uniform on [0, 2^64).
  uint64_t NextUint64();

  // Uniform on [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Uniform on [0, 1).
  double UniformDouble();

  // Uniform on [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via a 256-layer ziggurat; about 99% of draws consume
  // one NextUint64.
  double Normal();
  double Normal(double mean, double stddev);

  // exp(Normal(mu, sigma)): log-normal with the given log-space parameters.
  double LogNormal(double mu, double sigma);

  // Exponential with the given mean. Requires mean > 0.
  double Exponential(double mean);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  int Poisson(double mean);

  // Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed runtimes).
  double BoundedPareto(double lo, double hi, double alpha);

  // Gamma(shape, 1) via Marsaglia-Tsang. Requires shape > 0.
  double Gamma(double shape);

  // Beta(a, b) on (0, 1) via two Gamma draws. Requires a, b > 0.
  double Beta(double a, double b);

  // Geometric number of trials until first success (support {1, 2, ...})
  // with success probability p in (0, 1]; mean 1/p.
  int Geometric(double p);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  uint64_t seed() const { return seed_; }

 private:
  Rng(uint64_t seed, std::array<uint64_t, 4> state);

  uint64_t seed_;
  std::array<uint64_t, 4> state_;
};

}  // namespace crf

#endif  // CRF_UTIL_RNG_H_
