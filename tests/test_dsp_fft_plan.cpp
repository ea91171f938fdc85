// FFT plan cache: planned transforms must be bit-identical to the
// planless reference (the twiddle/chirp tables are built by the same
// floating-point recurrences), the registry must hand out shared plans,
// and concurrent use of one plan must be race-free (TSan covers this
// suite in scripts/tier1.sh).
#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "cpa/spread_spectrum.h"
#include "dsp/fft.h"
#include "sync/search.h"
#include "sync/types.h"
#include "util/rng.h"

namespace clockmark::dsp {
namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.gaussian(), rng.gaussian());
  return x;
}

void expect_bitwise_equal(const std::vector<cplx>& a,
                          const std::vector<cplx>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "index " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "index " << i;
  }
}

TEST(FftPlan, PlannedMatchesPlanlessPow2) {
  for (const std::size_t n : {1u, 2u, 8u, 64u, 1024u}) {
    const auto x = random_signal(n, 0xF0 + n);
    expect_bitwise_equal(fft(x), fft_unplanned(x, false));
  }
}

TEST(FftPlan, PlannedMatchesPlanlessBluestein) {
  // Non-power-of-two sizes, including the paper's period P = 4095.
  for (const std::size_t n : {3u, 5u, 100u, 1023u, 4095u}) {
    const auto x = random_signal(n, 0xB0 + n);
    expect_bitwise_equal(fft(x), fft_unplanned(x, false));
  }
}

TEST(FftPlan, PlannedInverseMatchesPlanless) {
  for (const std::size_t n : {8u, 100u, 4095u}) {
    const auto x = random_signal(n, 0x10 + n);
    // ifft normalises by 1/n after the raw transform; apply the same op
    // to the planless reference.
    auto ref = fft_unplanned(x, true);
    const double norm = 1.0 / static_cast<double>(n);
    for (auto& v : ref) v *= norm;
    expect_bitwise_equal(ifft(x), ref);
  }
}

TEST(FftPlan, DirectTransformMatchesFft) {
  // Going through FftPlan::transform by hand (own workspace) matches the
  // fft() convenience wrapper.
  const std::size_t n = 4095;
  const auto x = random_signal(n, 0xD1);
  const auto plan = get_fft_plan(n);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->size(), n);
  FftWorkspace ws;
  std::vector<cplx> out;
  plan->transform(x, false, ws, out);
  expect_bitwise_equal(out, fft(x));
}

TEST(FftPlan, CircularCrossCorrelationPlannedMatchesReference) {
  // The planned ccc path (one plan fetch, workspace scratch) must equal
  // the planless formula computed from fft_unplanned.
  for (const std::size_t n : {16u, 100u, 4095u}) {
    util::Pcg32 rng(0xCC + n);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();

    std::vector<cplx> ca(n);
    std::vector<cplx> cb(n);
    for (std::size_t i = 0; i < n; ++i) ca[i] = cplx(a[i], 0.0);
    for (std::size_t i = 0; i < n; ++i) cb[i] = cplx(b[i], 0.0);
    const auto fa = fft_unplanned(ca, false);
    const auto fb = fft_unplanned(cb, false);
    std::vector<cplx> prod(n);
    for (std::size_t k = 0; k < n; ++k) {
      prod[k] = std::conj(fa[k]) * fb[k];
    }
    auto r = fft_unplanned(prod, true);
    const double norm = 1.0 / static_cast<double>(n);
    for (auto& v : r) v *= norm;

    const auto out = circular_cross_correlation(a, b);
    ASSERT_EQ(out.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(out[k], r[k].real()) << "index " << k;
    }
  }
}

TEST(FftPlan, RegistrySharesPlansAndRejectsOversize) {
  const auto a = get_fft_plan(4095);
  const auto b = get_fft_plan(4095);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(fft_plan_cache_size(), 1u);
  EXPECT_EQ(get_fft_plan(0), nullptr);
  EXPECT_EQ(get_fft_plan(kMaxPlannedFftSize + 1), nullptr);
  // At the cap itself a plan is still provided.
  EXPECT_NE(get_fft_plan(kMaxPlannedFftSize), nullptr);
}

TEST(FftPlan, ConcurrentTransformsShareOnePlan) {
  // Many threads transforming through the same cached plan (each with
  // its own thread-local workspace) must agree with the serial result
  // bit for bit; TSan verifies the registry and shared tables.
  const std::size_t n = 4095;
  const auto x = random_signal(n, 0xC0);
  const auto reference = fft_unplanned(x, false);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<cplx>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter) results[t] = fft(x);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& result : results) expect_bitwise_equal(result, reference);
}

TEST(FftPlan, PlannedMatchesPlanlessConvolutionLengths) {
  // The power-of-two sizes Bluestein convolves at: m = 4096 for
  // P = 1023 (and up), 8192 for the paper's P = 4095, 16384 beyond.
  for (const std::size_t n : {4096u, 8192u, 16384u}) {
    const auto x = random_signal(n, 0xA0 + n);
    expect_bitwise_equal(fft(x), fft_unplanned(x, false));
    auto ref = fft_unplanned(x, true);
    const double norm = 1.0 / static_cast<double>(n);
    for (auto& v : ref) v *= norm;
    expect_bitwise_equal(ifft(x), ref);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(FftPlan, MultiplySpectraMatchesComplexOperators) {
  // Finite edge operands: signed zeros, subnormals, magnitudes whose
  // products overflow to infinity (and whose differences turn NaN) or
  // underflow, in every sign combination. The std::complex expressions
  // are the reference, compared bit for bit.
  const double sub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> edges = {
      0.0,    -0.0,    sub,    -sub,   2.5e-310, -2.5e-310,
      1e300,  -1e300,  1e-300, -1e-300, 1.0,     -3.25};
  std::vector<cplx> a;
  for (const double re : edges) {
    for (const double im : edges) a.emplace_back(re, im);
  }
  const std::size_t n = a.size() * a.size();
  std::vector<cplx> lhs(n);
  std::vector<cplx> rhs(n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      lhs[i * a.size() + j] = a[i];
      rhs[i * a.size() + j] = a[j];
    }
  }
  std::vector<cplx> prod(n);
  std::vector<cplx> conj_prod(n);
  multiply_spectra(lhs, rhs, prod);
  multiply_spectra(lhs, rhs, conj_prod, Conjugate::kFirst);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx p = lhs[k] * rhs[k];
    const cplx c = std::conj(lhs[k]) * rhs[k];
    ASSERT_TRUE(same_bits(prod[k].real(), p.real())) << "index " << k;
    ASSERT_TRUE(same_bits(prod[k].imag(), p.imag())) << "index " << k;
    ASSERT_TRUE(same_bits(conj_prod[k].real(), c.real())) << "index " << k;
    ASSERT_TRUE(same_bits(conj_prod[k].imag(), c.imag())) << "index " << k;
  }
  // In place (out aliasing a) gives the same bits.
  multiply_spectra(lhs, rhs, lhs, Conjugate::kFirst);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_TRUE(same_bits(lhs[k].real(), conj_prod[k].real()));
    ASSERT_TRUE(same_bits(lhs[k].imag(), conj_prod[k].imag()));
  }
}

// FNV-1a over the bytes of each double, in order.
std::uint64_t hash_doubles(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// One period of a 0/1 model pattern and a capture carrying it at a
// fixed rotation under unit Gaussian noise, both from fixed Pcg32 seeds.
std::vector<double> golden_pattern(std::size_t period) {
  util::Pcg32 rng(0x601D + period);
  std::vector<double> pattern(period);
  for (auto& v : pattern) v = static_cast<double>(rng.bounded(2));
  return pattern;
}

std::vector<double> golden_capture(std::span<const double> pattern,
                                   std::size_t cycles, double step) {
  util::Pcg32 rng(0xCA97 + pattern.size());
  std::vector<double> y(cycles);
  for (std::size_t k = 0; k < cycles; ++k) {
    // step != 1 desynchronises the capture's clock from the pattern's.
    const auto phase = static_cast<std::size_t>(
        std::floor(17.0 + step * static_cast<double>(k)));
    y[k] = 0.1 * pattern[phase % pattern.size()] + rng.gaussian();
  }
  return y;
}

// Absolute output bits, recorded with the std::complex kernel this
// real-arithmetic kernel replaced (gcc 12.2.0 -O2, glibc 2.36, x86-64
// with AVX2/FMA for the hot-path Gaussian fill). Planned == planless
// only pins the two paths to each other; these pin both to the bits the
// library produced before. Another toolchain or libm may legitimately
// need new values (cos/sin feed the twiddle tables).
TEST(FftPlan, GoldenSpreadSpectrumBits) {
  const struct {
    std::size_t period;
    std::uint64_t rho_hash;
  } cases[] = {{1023, 0xe1f4fd6f80d9fbdbULL},
                {4095, 0x1b2c7b0db2d1432fULL}};
  for (const auto& c : cases) {
    const auto pattern = golden_pattern(c.period);
    const auto y = golden_capture(pattern, 5 * c.period + 321, 1.0);
    const auto ss = cpa::compute_spread_spectrum(y, pattern);
    EXPECT_EQ(ss.peak_rotation, 17u) << "period " << c.period;
    EXPECT_EQ(hash_doubles(ss.rho), c.rho_hash)
        << "period " << c.period << ": got 0x" << std::hex
        << hash_doubles(ss.rho);
  }
}

TEST(FftPlan, GoldenFindSyncBits) {
  const auto pattern = golden_pattern(1023);
  const auto y = golden_capture(pattern, 20000, 1.0 + 60e-6);
  const sync::SyncEstimate est = sync::find_sync(y, pattern);
  EXPECT_TRUE(est.locked);
  const std::vector<double> fields = {
      est.correction.offset_cycles,
      est.correction.ratio,
      est.correction.drift,
      static_cast<double>(est.peak_rotation),
      est.offset_cycles,
      est.peak_z,
      est.confidence,
      est.locked ? 1.0 : 0.0,
      static_cast<double>(est.evaluations)};
  EXPECT_EQ(hash_doubles(fields), 0x6d28f0216dbfb524ULL)
      << "got 0x" << std::hex << hash_doubles(fields);
}

}  // namespace
}  // namespace clockmark::dsp
