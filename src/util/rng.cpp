#include "util/rng.h"

#include <algorithm>
#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "util/fastmath.h"

namespace clockmark::util {

namespace {
/// The PCG-XSH-RR output permutation of one raw state word — the same
/// computation Pcg32::operator() applies before advancing. Factored out
/// so the batched fill can emit draws from jump-ahead lane states.
inline std::uint32_t pcg_output(std::uint64_t old) noexcept {
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

constexpr std::uint64_t kMult = 6364136223846793005ULL;

#if defined(__AVX2__)
/// Low 64 bits of a * b per lane (the LCG's mod-2^64 product).
inline __m256i mul_lo64(__m256i a, __m256i b) noexcept {
#if defined(__AVX512DQ__) && defined(__AVX512VL__)
  return _mm256_mullo_epi64(a, b);
#else
  // lo(a)lo(b) + ((hi(a)lo(b) + lo(a)hi(b)) << 32): the hi*hi term and
  // the high halves of the cross terms fall off the top.
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
#endif
}

/// pcg_output of four states, zero-extended into 64-bit lanes.
inline __m256i pcg_output4(__m256i old) noexcept {
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i x = _mm256_and_si256(
      _mm256_srli_epi64(
          _mm256_xor_si256(_mm256_srli_epi64(old, 18), old), 27),
      low32);
  const __m256i rot = _mm256_srli_epi64(old, 59);
  // 32-bit rotate right in 64-bit lanes; rot == 0 shifts x by 32, which
  // the mask drops, as the scalar `& 31u` does.
  const __m256i left =
      _mm256_sllv_epi64(x, _mm256_sub_epi64(_mm256_set1_epi64x(32), rot));
  return _mm256_and_si256(_mm256_or_si256(_mm256_srlv_epi64(x, rot), left),
                          low32);
}

/// static_cast<double>(r) * 0x1p-32 for 32-bit r in 64-bit lanes: 2^52
/// + r is exact as a bit pattern, so subtracting 2^52 recovers r exactly.
inline __m256d unit_double4(__m256i r) noexcept {
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256d d = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(r, _mm256_castpd_si256(two52))),
      two52);
  return _mm256_mul_pd(d, _mm256_set1_pd(0x1p-32));
}

/// The uniform walk of fill_gaussian for the first pairs / 8 * 8 pairs:
/// 16 jump-ahead states of one stream, s_{16b} .. s_{16b+15} at step b,
/// in four vectors (even draws feed u1, odd draws u2) advanced 16 draws
/// at a time, so four 64-bit multiply chains overlap. Writes the draws
/// the sequential walk would make, clears `no_zero` if any u1 draw is 0,
/// advances `state` past the consumed draws and returns the pairs done.
std::size_t uniform_walk16(std::uint64_t& state, std::uint64_t inc,
                           std::size_t pairs, double* u1, double* u2,
                           bool& no_zero) noexcept {
  const std::size_t steps = pairs / 8;
  if (steps == 0) return 0;
  std::uint64_t s[16];
  s[0] = state;
  for (std::size_t k = 1; k < 16; ++k) s[k] = s[k - 1] * kMult + inc;
  std::uint64_t mult16 = 1;  // s_{n+16} = mult16 * s_n + inc16
  std::uint64_t inc16 = 0;
  for (std::size_t k = 0; k < 16; ++k) {
    mult16 *= kMult;
    inc16 = inc16 * kMult + inc;
  }
  const auto lanes = [&](std::size_t k0) {
    return _mm256_setr_epi64x(
        static_cast<long long>(s[k0]), static_cast<long long>(s[k0 + 2]),
        static_cast<long long>(s[k0 + 4]), static_cast<long long>(s[k0 + 6]));
  };
  __m256i even_lo = lanes(0);  // u1, pairs 8b .. 8b+3
  __m256i odd_lo = lanes(1);   // u2, pairs 8b .. 8b+3
  __m256i even_hi = lanes(8);  // u1, pairs 8b+4 .. 8b+7
  __m256i odd_hi = lanes(9);   // u2, pairs 8b+4 .. 8b+7
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mult16));
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(inc16));
  const __m256i zero = _mm256_setzero_si256();
  __m256i zeros = zero;  // lanes whose u1 draw was exactly 0
  for (std::size_t b = 0; b < steps; ++b) {
    const __m256i r_lo = pcg_output4(even_lo);
    const __m256i r_hi = pcg_output4(even_hi);
    zeros = _mm256_or_si256(zeros, _mm256_cmpeq_epi64(r_lo, zero));
    zeros = _mm256_or_si256(zeros, _mm256_cmpeq_epi64(r_hi, zero));
    _mm256_storeu_pd(u1 + 8 * b, unit_double4(r_lo));
    _mm256_storeu_pd(u1 + 8 * b + 4, unit_double4(r_hi));
    _mm256_storeu_pd(u2 + 8 * b, unit_double4(pcg_output4(odd_lo)));
    _mm256_storeu_pd(u2 + 8 * b + 4, unit_double4(pcg_output4(odd_hi)));
    even_lo = _mm256_add_epi64(mul_lo64(even_lo, vm), vc);
    odd_lo = _mm256_add_epi64(mul_lo64(odd_lo, vm), vc);
    even_hi = _mm256_add_epi64(mul_lo64(even_hi, vm), vc);
    odd_hi = _mm256_add_epi64(mul_lo64(odd_hi, vm), vc);
  }
  if (!_mm256_testz_si256(zeros, zeros)) no_zero = false;
  // even_lo's first lane has advanced to s_{16 * steps}.
  state = static_cast<std::uint64_t>(_mm256_extract_epi64(even_lo, 0));
  return steps * 8;
}
#endif
}  // namespace

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0u), inc_((stream << 1u) | 1u) {
  (*this)();
  state_ += seed;
  (*this)();
}

Pcg32::result_type Pcg32::operator()() noexcept {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Pcg32::bounded(std::uint32_t bound) noexcept {
  // Lemire's nearly-divisionless technique.
  std::uint64_t m = static_cast<std::uint64_t>((*this)()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>((*this)()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32u);
}

double Pcg32::uniform() noexcept {
  // 32 random bits scaled into [0, 1).
  return static_cast<double>((*this)()) * 0x1p-32;
}

double Pcg32::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Pcg32::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is kept away from zero to avoid log(0). The
  // transcendentals come from fastmath.h — the same inline kernels the
  // batched fill_gaussian vectorizes — so the scalar and batched draws
  // are bit-identical by construction.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  double first = 0.0;
  double second = 0.0;
  fast_gaussian_pair(u1, u2, first, second);
  cached_gaussian_ = second;
  has_cached_gaussian_ = true;
  return first;
}

double Pcg32::gaussian(double mean, double sigma) noexcept {
  return mean + sigma * gaussian();
}

void Pcg32::fill_gaussian(std::span<double> out, double mean,
                          double sigma) noexcept {
  std::size_t i = 0;
  if (has_cached_gaussian_ && i < out.size()) {
    has_cached_gaussian_ = false;
    out[i++] = mean + sigma * cached_gaussian_;
  }

  // Staged array passes over a stack-resident batch: the uniform fill is
  // a serial RNG walk, but the log/sqrt/sincos transforms and the final
  // scale are independent per pair, so gcc vectorizes each pass. The
  // per-element op sequence (and thus every output bit) matches the
  // scalar gaussian() exactly — see fast_gaussian_pair.
  constexpr std::size_t kPairs = 512;
  double u1[kPairs];
  double u2[kPairs];
  double rr[kPairs];
  double sn[kPairs];
  double cs[kPairs];
  while (out.size() - i >= 2) {
    const std::size_t pairs = std::min(kPairs, (out.size() - i) / 2);

    // Uniform fill. The sequential generator consumes exactly two draws
    // per pair unless a u1 draw lands on exactly zero (probability
    // 2^-32 per draw). Exploit that: walk jump-ahead states of the
    // *same* stream so several 64-bit multiply chains overlap — 16
    // states in AVX2 vectors (uniform_walk16), then two scalar lanes
    // (even- and odd-index states) for the remaining pairs — and fall
    // back to the plain rejection loop for the whole batch in the
    // astronomically rare zero case. Draw values and the final
    // generator state are bit-identical to the sequential walk either
    // way.
    bool no_zero = true;
    {
      constexpr std::uint64_t kMult2 = kMult * kMult;  // two-step multiplier
      const std::uint64_t inc2 = inc_ * (kMult + 1ULL);
      std::uint64_t s = state_;
      std::size_t p = 0;
#if defined(__AVX2__)
      p = uniform_walk16(s, inc_, pairs, u1, u2, no_zero);
#endif
      std::uint64_t sa = s;                 // states s_{2p}, s_{2p+2}, ...
      std::uint64_t sb = s * kMult + inc_;  // states s_{2p+1}, ...
      for (; p < pairs; ++p) {
        const std::uint32_t ra = pcg_output(sa);
        const std::uint32_t rb = pcg_output(sb);
        sa = sa * kMult2 + inc2;
        sb = sb * kMult2 + inc2;
        u1[p] = static_cast<double>(ra) * 0x1p-32;
        u2[p] = static_cast<double>(rb) * 0x1p-32;
        no_zero = no_zero && (ra != 0u);
      }
      if (no_zero) state_ = sa;  // sa has advanced to s_{2*pairs}
    }
    if (!no_zero) {
      // state_ was not advanced above, so this replays the whole batch
      // with the sequential rejection semantics.
      for (std::size_t p = 0; p < pairs; ++p) {
        double a = 0.0;
        do {
          a = uniform();
        } while (a <= 0.0);
        u1[p] = a;
        u2[p] = uniform();
      }
    }
    for (std::size_t p = 0; p < pairs; ++p) rr[p] = -2.0 * fast_log(u1[p]);
    for (std::size_t p = 0; p < pairs; ++p) rr[p] = std::sqrt(rr[p]);
    for (std::size_t p = 0; p < pairs; ++p) {
      fast_sincos_2pi(u2[p], sn[p], cs[p]);
    }
    for (std::size_t p = 0; p < pairs; ++p) {
      out[i + 2 * p] = mean + sigma * (rr[p] * cs[p]);
      out[i + 2 * p + 1] = mean + sigma * (rr[p] * sn[p]);
    }
    i += 2 * pairs;
  }

  // Odd tail: one more sequential draw, which leaves its sine partner in
  // the cache exactly as the scalar loop would.
  if (i < out.size()) out[i] = gaussian(mean, sigma);
}

bool Pcg32::bernoulli(double p) noexcept { return uniform() < p; }

Pcg32 Pcg32::fork(std::uint64_t salt) noexcept {
  std::uint64_t s = state_ ^ (salt * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t child_seed = splitmix64(s);
  const std::uint64_t child_stream = splitmix64(s);
  return Pcg32(child_seed, child_stream);
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30u)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27u)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31u);
}

}  // namespace clockmark::util
