#include "dsp/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/fft_plan.h"

namespace clockmark::dsp {
namespace {

// Bluestein's algorithm: expresses an arbitrary-N DFT as a circular
// convolution of length M (power of two >= 2N-1), evaluated with radix-2
// FFTs. Exact for any N.
std::vector<cplx> bluestein(std::span<const cplx> input, bool inverse) {
  const std::size_t n = input.size();
  const double sign = inverse ? 1.0 : -1.0;
  // Chirp factors w[k] = exp(sign * i * pi * k^2 / n). k^2 mod 2n keeps the
  // argument bounded for large k.
  std::vector<cplx> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle =
        sign * std::numbers::pi * static_cast<double>(k2) /
        static_cast<double>(n);
    w[k] = cplx(std::cos(angle), std::sin(angle));
  }
  const std::size_t m = next_power_of_two(2 * n - 1);
  std::vector<cplx> a(m, cplx(0.0, 0.0));
  std::vector<cplx> b(m, cplx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) a[k] = input[k] * w[k];
  b[0] = std::conj(w[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = std::conj(w[k]);
    b[m - k] = std::conj(w[k]);
  }
  fft_pow2(a, false);
  fft_pow2(b, false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_pow2(a, true);
  const double norm = 1.0 / static_cast<double>(m);
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * w[k] * norm;
  return out;
}

std::vector<cplx> dft_any(std::span<const cplx> input, bool inverse) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  if (is_power_of_two(n)) {
    std::vector<cplx> data(input.begin(), input.end());
    fft_pow2(data, inverse);
    return data;
  }
  return bluestein(input, inverse);
}

}  // namespace

bool is_power_of_two(std::size_t n) noexcept {
  return n >= 1 && (n & (n - 1)) == 0;
}

std::size_t next_power_of_two(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1u;
  return p;
}

void fft_pow2(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_pow2: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1u;
    for (; j & bit; bit >>= 1u) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1u) {
    const double angle =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<cplx> fft(std::span<const cplx> input) {
  if (const auto plan = get_fft_plan(input.size())) {
    std::vector<cplx> out;
    plan->transform(input, false, thread_fft_workspace(), out);
    return out;
  }
  return dft_any(input, false);
}

std::vector<cplx> ifft(std::span<const cplx> input) {
  std::vector<cplx> out;
  if (const auto plan = get_fft_plan(input.size())) {
    plan->transform(input, true, thread_fft_workspace(), out);
  } else {
    out = dft_any(input, true);
  }
  const double norm =
      input.empty() ? 1.0 : 1.0 / static_cast<double>(input.size());
  // Power-of-two path returns unnormalised inverse; Bluestein path is also
  // unnormalised by design of dft_any (its internal norm only covers the
  // convolution length), so normalise uniformly here.
  for (auto& v : out) v *= norm;
  return out;
}

std::vector<cplx> fft_unplanned(std::span<const cplx> input, bool inverse) {
  return dft_any(input, inverse);
}

std::vector<cplx> fft_real(std::span<const double> input) {
  std::vector<cplx> c(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) c[i] = cplx(input[i], 0.0);
  return fft(c);
}

std::vector<double> power_spectrum(std::span<const double> input) {
  const auto spec = fft_real(input);
  const std::size_t half = input.size() / 2 + 1;
  std::vector<double> p(std::min(half, spec.size()));
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::norm(spec[i]);
  return p;
}

std::vector<double> circular_cross_correlation(std::span<const double> a,
                                               std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(
        "circular_cross_correlation: length mismatch");
  }
  const std::size_t n = a.size();
  if (n == 0) return {};
  // r = ifft(conj(fft(a)) .* fft(b)), with real inputs.
  const auto plan = get_fft_plan(n);
  if (plan == nullptr) {
    const auto fa = fft_real(a);
    const auto fb = fft_real(b);
    std::vector<cplx> prod(n);
    multiply_spectra(fa, fb, prod, Conjugate::kFirst);
    const auto r = ifft(prod);
    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) out[k] = r[k].real();
    return out;
  }
  // Planned path: one plan fetch, all scratch in the thread workspace.
  // Identical arithmetic to the planless branch above; the 1/N ifft
  // normalisation is applied to the extracted real part, which is
  // bit-identical because complex *= double scales each component
  // independently.
  auto& ws = thread_fft_workspace();
  ws.t0.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.t0[i] = cplx(a[i], 0.0);
  plan->transform(ws.t0, false, ws, ws.t1);  // fa
  for (std::size_t i = 0; i < n; ++i) ws.t0[i] = cplx(b[i], 0.0);
  plan->transform(ws.t0, false, ws, ws.t2);  // fb
  multiply_spectra(ws.t1, ws.t2, ws.t0, Conjugate::kFirst);
  plan->transform(ws.t0, true, ws, ws.t1);
  const double norm = 1.0 / static_cast<double>(n);
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = ws.t1[k].real() * norm;
  return out;
}

std::vector<double> circular_cross_correlation_direct(
    std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(
        "circular_cross_correlation_direct: length mismatch");
  }
  const std::size_t n = a.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s += a[i] * b[(i + k) % n];
    }
    out[k] = s;
  }
  return out;
}

}  // namespace clockmark::dsp
