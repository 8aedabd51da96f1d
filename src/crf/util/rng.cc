#include "crf/util/rng.h"

#include <bit>
#include <cmath>
#include <limits>

#include "crf/util/check.h"

namespace crf {
namespace {

// IeeeExp: x = (128 e + j) ln2/128 + r with |r| <= ln2/256, so
// exp(x) = 2^e * 2^(j/128) * exp(r). The table holds 2^(j/128) correctly
// rounded; exp(r) - 1 is its degree-5 Taylor polynomial (truncation error
// below 1e-18). ln2/128 is split Cody-Waite style: kLn2HiN has 32
// significant bits, so k * kLn2HiN is exact for every |k| < 2^21.
constexpr int kExpTableBits = 7;
constexpr int kExpTableSize = 1 << kExpTableBits;
constexpr double kExp2Table[kExpTableSize] = {
    0x1.0000000000000p+0, 0x1.0163da9fb3335p+0, 0x1.02c9a3e778061p+0,
    0x1.04315e86e7f85p+0, 0x1.059b0d3158574p+0, 0x1.0706b29ddf6dep+0,
    0x1.0874518759bc8p+0, 0x1.09e3ecac6f383p+0, 0x1.0b5586cf9890fp+0,
    0x1.0cc922b7247f7p+0, 0x1.0e3ec32d3d1a2p+0, 0x1.0fb66affed31bp+0,
    0x1.11301d0125b51p+0, 0x1.12abdc06c31ccp+0, 0x1.1429aaea92de0p+0,
    0x1.15a98c8a58e51p+0, 0x1.172b83c7d517bp+0, 0x1.18af9388c8deap+0,
    0x1.1a35beb6fcb75p+0, 0x1.1bbe084045cd4p+0, 0x1.1d4873168b9aap+0,
    0x1.1ed5022fcd91dp+0, 0x1.2063b88628cd6p+0, 0x1.21f49917ddc96p+0,
    0x1.2387a6e756238p+0, 0x1.251ce4fb2a63fp+0, 0x1.26b4565e27cddp+0,
    0x1.284dfe1f56381p+0, 0x1.29e9df51fdee1p+0, 0x1.2b87fd0dad990p+0,
    0x1.2d285a6e4030bp+0, 0x1.2ecafa93e2f56p+0, 0x1.306fe0a31b715p+0,
    0x1.32170fc4cd831p+0, 0x1.33c08b26416ffp+0, 0x1.356c55f929ff1p+0,
    0x1.371a7373aa9cbp+0, 0x1.38cae6d05d866p+0, 0x1.3a7db34e59ff7p+0,
    0x1.3c32dc313a8e5p+0, 0x1.3dea64c123422p+0, 0x1.3fa4504ac801cp+0,
    0x1.4160a21f72e2ap+0, 0x1.431f5d950a897p+0, 0x1.44e086061892dp+0,
    0x1.46a41ed1d0057p+0, 0x1.486a2b5c13cd0p+0, 0x1.4a32af0d7d3dep+0,
    0x1.4bfdad5362a27p+0, 0x1.4dcb299fddd0dp+0, 0x1.4f9b2769d2ca7p+0,
    0x1.516daa2cf6642p+0, 0x1.5342b569d4f82p+0, 0x1.551a4ca5d920fp+0,
    0x1.56f4736b527dap+0, 0x1.58d12d497c7fdp+0, 0x1.5ab07dd485429p+0,
    0x1.5c9268a5946b7p+0, 0x1.5e76f15ad2148p+0, 0x1.605e1b976dc09p+0,
    0x1.6247eb03a5585p+0, 0x1.6434634ccc320p+0, 0x1.6623882552225p+0,
    0x1.68155d44ca973p+0, 0x1.6a09e667f3bcdp+0, 0x1.6c012750bdabfp+0,
    0x1.6dfb23c651a2fp+0, 0x1.6ff7df9519484p+0, 0x1.71f75e8ec5f74p+0,
    0x1.73f9a48a58174p+0, 0x1.75feb564267c9p+0, 0x1.780694fde5d3fp+0,
    0x1.7a11473eb0187p+0, 0x1.7c1ed0130c132p+0, 0x1.7e2f336cf4e62p+0,
    0x1.80427543e1a12p+0, 0x1.82589994cce13p+0, 0x1.8471a4623c7adp+0,
    0x1.868d99b4492edp+0, 0x1.88ac7d98a6699p+0, 0x1.8ace5422aa0dbp+0,
    0x1.8cf3216b5448cp+0, 0x1.8f1ae99157736p+0, 0x1.9145b0b91ffc6p+0,
    0x1.93737b0cdc5e5p+0, 0x1.95a44cbc8520fp+0, 0x1.97d829fde4e50p+0,
    0x1.9a0f170ca07bap+0, 0x1.9c49182a3f090p+0, 0x1.9e86319e32323p+0,
    0x1.a0c667b5de565p+0, 0x1.a309bec4a2d33p+0, 0x1.a5503b23e255dp+0,
    0x1.a799e1330b358p+0, 0x1.a9e6b5579fdbfp+0, 0x1.ac36bbfd3f37ap+0,
    0x1.ae89f995ad3adp+0, 0x1.b0e07298db666p+0, 0x1.b33a2b84f15fbp+0,
    0x1.b59728de5593ap+0, 0x1.b7f76f2fb5e47p+0, 0x1.ba5b030a1064ap+0,
    0x1.bcc1e904bc1d2p+0, 0x1.bf2c25bd71e09p+0, 0x1.c199bdd85529cp+0,
    0x1.c40ab5fffd07ap+0, 0x1.c67f12e57d14bp+0, 0x1.c8f6d9406e7b5p+0,
    0x1.cb720dcef9069p+0, 0x1.cdf0b555dc3fap+0, 0x1.d072d4a07897cp+0,
    0x1.d2f87080d89f2p+0, 0x1.d5818dcfba487p+0, 0x1.d80e316c98398p+0,
    0x1.da9e603db3285p+0, 0x1.dd321f301b460p+0, 0x1.dfc97337b9b5fp+0,
    0x1.e264614f5a129p+0, 0x1.e502ee78b3ff6p+0, 0x1.e7a51fbc74c83p+0,
    0x1.ea4afa2a490dap+0, 0x1.ecf482d8e67f1p+0, 0x1.efa1bee615a27p+0,
    0x1.f252b376bba97p+0, 0x1.f50765b6e4540p+0, 0x1.f7bfdad9cbe14p+0,
    0x1.fa7c1819e90d8p+0, 0x1.fd3c22b8f71f1p+0
};
constexpr double kInvLn2N = 0x1.71547652b82fep+7;  // 128 / ln2
constexpr double kLn2HiN = 0x1.62e42fee00000p-8;   // ln2/128, high part
constexpr double kLn2LoN = 0x1.a39ef35793c76p-40;  // ln2/128 - kLn2HiN
constexpr double kRoundShift = 0x1.8p52;           // (z + shift) - shift rounds z

// 2^e for e in [-1022, 1023], built from its exponent bits.
double Pow2(int64_t e) { return std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52); }

// IeeeLog (after fdlibm's e_log.c): x = 2^e * m with m in [sqrt(2)/2,
// sqrt(2)), f = m - 1, s = f / (2 + f), and log(m) = f - hfsq + s (hfsq + R)
// with R a minimax polynomial in s^2.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;
constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
constexpr uint64_t kExponentOne = uint64_t{1023} << 52;

// The 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
// with Doornik's layer convention). Layer i >= 1 is the box |x| <= x[i],
// f[i] <= y <= f[i+1], with f(x) = exp(-x^2 / 2); the base strip is
// y <= f(r) plus the tail beyond r. Each has area v, so x[0] = v / f(r) is
// the base strip's virtual width. f[0] is unused: the base strip has no
// wedge.
constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;
constexpr double kZigV = 0.00492867323399;

struct Ziggurat {
  double x[kZigLayers + 1];
  double f[kZigLayers + 1];
};

// Built once, from IeeeExp, IeeeLog and sqrt, so the tables (and with them
// every normal draw) are the same on every platform.
const Ziggurat& ZigguratTables() {
  static const Ziggurat tables = [] {
    Ziggurat z{};
    const auto density = [](double x) { return IeeeExp(-0.5 * x * x); };
    z.x[0] = kZigV / density(kZigR);
    z.x[1] = kZigR;
    z.f[1] = density(kZigR);
    for (int i = 2; i < kZigLayers; ++i) {
      z.x[i] = std::sqrt(-2.0 * IeeeLog(kZigV / z.x[i - 1] + z.f[i - 1]));
      z.f[i] = density(z.x[i]);
    }
    z.x[kZigLayers] = 0.0;
    z.f[kZigLayers] = 1.0;
    return z;
  }();
  return tables;
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::array<uint64_t, 4> SeedState(uint64_t seed) {
  std::array<uint64_t, 4> state;
  uint64_t sm = seed;
  for (auto& word : state) {
    word = SplitMix64(sm);
  }
  return state;
}

}  // namespace

double IeeeExp(double x) {
  const bool edge = !(std::abs(x) <= 708.0);
  if (edge) {
    if (x != x) {
      return x;
    }
    if (x > 709.8) {
      return std::numeric_limits<double>::infinity();
    }
    if (x < -745.2) {
      return 0.0;
    }
  }
  // Adding the shift rounds z to an integer k held in the low mantissa bits.
  const double shifted = x * kInvLn2N + kRoundShift;
  const int64_t k = static_cast<int64_t>(std::bit_cast<uint64_t>(shifted) -
                                         std::bit_cast<uint64_t>(kRoundShift));
  const double kd = shifted - kRoundShift;
  const double r = (x - kd * kLn2HiN) - kd * kLn2LoN;
  const double r2 = r * r;
  const double q = (r + r2 * (0.5 + r * (1.0 / 6.0))) +
                   (r2 * r2) * (1.0 / 24.0 + r * (1.0 / 120.0));
  const double t = kExp2Table[k & (kExpTableSize - 1)];
  const double m = t + t * q;
  const int64_t e = k >> kExpTableBits;
  if (edge) {
    // 2^e is outside the normal range near overflow and underflow: apply
    // it in two halves, so the one rounding happens in the last multiply.
    const int64_t half = e / 2;
    return m * Pow2(half) * Pow2(e - half);
  }
  return m * Pow2(e);
}

double IeeeLog(double x) {
  uint64_t bits = std::bit_cast<uint64_t>(x);
  int64_t e = 0;
  if (bits < (uint64_t{1} << 52) || bits >= (uint64_t{0x7ff} << 52)) {
    // Zero, subnormal, negative, infinite or NaN.
    if (x == 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    if (!(x > 0.0)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (bits >= (uint64_t{0x7ff} << 52)) {
      return x;
    }
    bits = std::bit_cast<uint64_t>(x * 0x1p54);
    e = -54;
  }
  e += static_cast<int64_t>(bits >> 52) - 1023;
  double m = std::bit_cast<double>((bits & kMantissaMask) | kExponentOne);
  if (m > kSqrt2) {
    m *= 0.5;
    ++e;
  }
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double hfsq = 0.5 * f * f;
  const double dk = static_cast<double>(e);
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + t1 + t2) + dk * kLn2Lo)) - f);
}

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) : Rng(seed, SeedState(seed)) {}

Rng::Rng(uint64_t seed, std::array<uint64_t, 4> state) : seed_(seed), state_(state) {}

Rng Rng::Fork(uint64_t tag) const {
  // Mix the parent seed with the tag through two SplitMix64 rounds so that
  // consecutive tags do not produce correlated child seeds.
  uint64_t mix = seed_ ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  (void)SplitMix64(mix);
  const uint64_t child_seed = SplitMix64(mix);
  return Rng(child_seed);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t n) {
  CRF_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

double Rng::Normal() {
  const Ziggurat& zig = ZigguratTables();
  for (;;) {
    // The low 8 bits pick the layer; the top 53 give u uniform on [-1, 1).
    const uint64_t bits = NextUint64();
    const int i = static_cast<int>(bits & (kZigLayers - 1));
    const double u = 2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) - 1.0;
    const double x = u * zig.x[i];
    if (std::abs(x) < zig.x[i + 1]) {
      return x;  // inside the layer's rectangle
    }
    if (i == 0) {
      // The tail beyond r (Marsaglia 1964): exponential proposals accepted
      // against the normal density.
      double tail = 0.0;
      double y = 0.0;
      do {
        tail = IeeeLog(1.0 - UniformDouble()) / kZigR;
        y = IeeeLog(1.0 - UniformDouble());
      } while (-2.0 * y < tail * tail);
      return u < 0.0 ? tail - kZigR : kZigR - tail;
    }
    // The wedge between the rectangle and the density.
    if (zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * UniformDouble() < IeeeExp(-0.5 * x * x)) {
      return x;
    }
  }
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return IeeeExp(Normal(mu, sigma)); }

double Rng::Exponential(double mean) {
  CRF_CHECK_GT(mean, 0.0);
  const double u = 1.0 - UniformDouble();
  return -mean * IeeeLog(u);
}

int Rng::Poisson(double mean) {
  CRF_CHECK_GE(mean, 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction; fine for arrival
    // counts at the rates we simulate.
    const double sample = Normal(mean, std::sqrt(mean));
    return sample < 0.5 ? 0 : static_cast<int>(sample + 0.5);
  }
  const double limit = IeeeExp(-mean);
  double product = UniformDouble();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= UniformDouble();
  }
  return count;
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  CRF_CHECK_GT(lo, 0.0);
  CRF_CHECK_GT(hi, lo);
  CRF_CHECK_GT(alpha, 0.0);
  const double u = UniformDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double Rng::Gamma(double shape) {
  CRF_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang section 6).
    const double u = UniformDouble();
    return Gamma(shape + 1.0) * std::pow(u <= 0.0 ? 1e-300 : u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (u > 0.0 && IeeeLog(u) < 0.5 * x * x + d * (1.0 - v + IeeeLog(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double a, double b) {
  const double x = Gamma(a);
  const double y = Gamma(b);
  const double sum = x + y;
  return sum <= 0.0 ? 0.5 : x / sum;
}

int Rng::Geometric(double p) {
  CRF_CHECK_GT(p, 0.0);
  CRF_CHECK_LE(p, 1.0);
  if (p >= 1.0) {
    return 1;
  }
  const double u = 1.0 - UniformDouble();
  const int trials = 1 + static_cast<int>(IeeeLog(u) / std::log1p(-p));
  return trials < 1 ? 1 : trials;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

}  // namespace crf
