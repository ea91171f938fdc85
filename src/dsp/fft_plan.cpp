#include "dsp/fft_plan.h"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace clockmark::dsp {

std::vector<cplx> build_pow2_twiddles(std::size_t n, bool inverse) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(
        "build_pow2_twiddles: size must be a power of two");
  }
  std::vector<cplx> tw;
  tw.reserve(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  // Mirror fft_pow2's inline computation op for op: one wlen per stage,
  // then the sequential product w(k+1) = w(k) * wlen. Any other way of
  // producing the factors (e.g. cos/sin per index) would differ in the
  // last bits and break the planned == planless guarantee.
  for (std::size_t len = 2; len <= n; len <<= 1u) {
    const double angle =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    cplx w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw.push_back(w);
      w *= wlen;
    }
  }
  return tw;
}

// The butterflies and products below run over the interleaved double
// view ([complex.numbers]) in std::complex's operation order, without
// the __muldc3 NaN-recovery branch that keeps std::complex loops scalar
// (contract in fft_plan.h). The equality with the std::complex oracle
// holds only while no product is fused: gcc 12 SLP-vectorises these
// multiply-add/sub pairs into vfmaddsub whenever FMA is enabled, even
// under -ffp-contract=off. The guard lives here, not in a header:
// cm_sim includes the dsp headers and is built with -mfma.
#if defined(__FMA__)
#error dsp/fft_plan.cpp must be built without FMA: gcc fuses the complex \
multiply-add/sub pairs into vfmaddsub, which breaks the planned == planless \
FFT bit-identity (keep cm_dsp off CLOCKMARK_HOT_PATH_OPTIONS)
#endif

void fft_pow2_tabulated(std::span<cplx> data,
                        std::span<const cplx> twiddles) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(
        "fft_pow2_tabulated: size must be a power of two");
  }
  if (n > 1 && twiddles.size() != n - 1) {
    throw std::invalid_argument("fft_pow2_tabulated: wrong twiddle table");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1u;
    for (; j & bit; bit >>= 1u) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  double* d = reinterpret_cast<double*>(data.data());
  const double* tw = reinterpret_cast<const double*>(twiddles.data());
  for (std::size_t half = 1; half < n; half <<= 1u) {
    // Stage with butterflies of span 2*half; its twiddles start at
    // complex index half - 1 (stages before it hold 1 + 2 + ... values).
    const double* w = tw + 2 * (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = d + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 2) {
        // v = x * w for the upper element x, then (u + v, u - v): the
        // std::complex butterfly's operations, in its order.
        const double xr = hi[k];
        const double xi = hi[k + 1];
        const double vr = xr * w[k] - xi * w[k + 1];
        const double vi = xr * w[k + 1] + xi * w[k];
        const double ur = lo[k];
        const double ui = lo[k + 1];
        lo[k] = ur + vr;
        lo[k + 1] = ui + vi;
        hi[k] = ur - vr;
        hi[k + 1] = ui - vi;
      }
    }
  }
}

namespace {

template <bool kConjA>
void multiply_interleaved(const double* pa, const double* pb, double* po,
                          std::size_t n) {
  // Both components of a[k] and b[k] are read before out[k] is written,
  // so out may alias a or b element for element.
  for (std::size_t k = 0; k < 2 * n; k += 2) {
    const double ar = pa[k];
    // std::conj(a) * b: the conjugate's negated imaginary part enters
    // the product like any other operand.
    const double ai = kConjA ? -pa[k + 1] : pa[k + 1];
    const double br = pb[k];
    const double bi = pb[k + 1];
    po[k] = ar * br - ai * bi;
    po[k + 1] = ar * bi + ai * br;
  }
}

}  // namespace

void multiply_spectra(std::span<const cplx> a, std::span<const cplx> b,
                      std::span<cplx> out, Conjugate conj_a) {
  const std::size_t n = out.size();
  if (a.size() != n || b.size() != n) {
    throw std::invalid_argument("multiply_spectra: length mismatch");
  }
  const double* pa = reinterpret_cast<const double*>(a.data());
  const double* pb = reinterpret_cast<const double*>(b.data());
  double* po = reinterpret_cast<double*>(out.data());
  if (conj_a == Conjugate::kFirst) {
    multiply_interleaved<true>(pa, pb, po, n);
  } else {
    multiply_interleaved<false>(pa, pb, po, n);
  }
}

namespace {

// Bluestein chirp factors w[k] = exp(sign * i * pi * k^2 / n); the same
// formula (and k^2 mod 2n bounding) as the planless bluestein().
std::vector<cplx> build_chirp(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<cplx> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * std::numbers::pi *
                         static_cast<double>(k2) / static_cast<double>(n);
    w[k] = cplx(std::cos(angle), std::sin(angle));
  }
  return w;
}

// The convolution kernel b (conjugate chirp, wrapped), forward-FFT'd
// once at plan build instead of on every transform.
std::vector<cplx> build_kernel_fft(const std::vector<cplx>& w,
                                   std::size_t m,
                                   std::span<const cplx> tw_fwd) {
  const std::size_t n = w.size();
  std::vector<cplx> b(m, cplx(0.0, 0.0));
  b[0] = std::conj(w[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = std::conj(w[k]);
    b[m - k] = std::conj(w[k]);
  }
  fft_pow2_tabulated(b, tw_fwd);
  return b;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n_ == 0) return;
  pow2_ = is_power_of_two(n_);
  m_ = pow2_ ? n_ : next_power_of_two(2 * n_ - 1);
  if (m_ > 1) {
    tw_fwd_ = build_pow2_twiddles(m_, false);
    tw_inv_ = build_pow2_twiddles(m_, true);
  }
  if (!pow2_) {
    chirp_fwd_ = build_chirp(n_, false);
    chirp_inv_ = build_chirp(n_, true);
    fftb_fwd_ = build_kernel_fft(chirp_fwd_, m_, tw_fwd_);
    fftb_inv_ = build_kernel_fft(chirp_inv_, m_, tw_fwd_);
  }
}

void FftPlan::transform(std::span<const cplx> input, bool inverse,
                        FftWorkspace& ws, std::vector<cplx>& out) const {
  if (input.size() != n_) {
    throw std::invalid_argument("FftPlan::transform: size mismatch");
  }
  if (n_ == 0) {
    out.clear();
    return;
  }
  if (pow2_) {
    out.assign(input.begin(), input.end());
    fft_pow2_tabulated(out, inverse ? tw_inv_ : tw_fwd_);
    return;
  }
  const auto& w = inverse ? chirp_inv_ : chirp_fwd_;
  const auto& fftb = inverse ? fftb_inv_ : fftb_fwd_;
  auto& a = ws.conv;
  a.assign(m_, cplx(0.0, 0.0));
  const std::span<cplx> head(a.data(), n_);
  multiply_spectra(input, w, head);
  fft_pow2_tabulated(a, tw_fwd_);
  multiply_spectra(a, fftb, a);
  fft_pow2_tabulated(a, tw_inv_);
  // out = a * w * norm: the complex product, then the real scale, which
  // std::complex applies to each component independently.
  const double norm = 1.0 / static_cast<double>(m_);
  out.resize(n_);
  multiply_spectra(head, w, out);
  double* o = reinterpret_cast<double*>(out.data());
  for (std::size_t k = 0; k < 2 * n_; ++k) o[k] *= norm;
}

namespace {

std::mutex g_plan_mutex;
std::map<std::size_t, std::shared_ptr<const FftPlan>>* g_plans = nullptr;

// Registry backstop far above what any study touches; beyond it plans
// are built per call but never cached.
constexpr std::size_t kMaxCachedPlans = 64;

}  // namespace

std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n) {
  if (n == 0 || n > kMaxPlannedFftSize) return nullptr;
  {
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    if (g_plans != nullptr) {
      const auto it = g_plans->find(n);
      if (it != g_plans->end()) return it->second;
    }
  }
  // Build outside the lock: plan construction is the expensive part and
  // must not serialise unrelated sizes. A racing thread may build the
  // same plan; first insert wins and both are bit-identical.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  if (g_plans == nullptr) {
    g_plans = new std::map<std::size_t, std::shared_ptr<const FftPlan>>();
  }
  const auto it = g_plans->find(n);
  if (it != g_plans->end()) return it->second;
  if (g_plans->size() < kMaxCachedPlans) g_plans->emplace(n, plan);
  return plan;
}

std::size_t fft_plan_cache_size() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  return g_plans == nullptr ? 0 : g_plans->size();
}

FftWorkspace& thread_fft_workspace() {
  thread_local FftWorkspace ws;
  return ws;
}

}  // namespace clockmark::dsp
