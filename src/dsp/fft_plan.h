// Cached FFT plans. The CPA sweep evaluates rotation correlations of the
// same period (P = 4095 in the paper) thousands of times per study;
// without a plan every transform re-derives the per-stage twiddle
// factors and — for non-power-of-two sizes — the whole Bluestein chirp
// and its convolution-kernel FFT. An FftPlan computes those tables once
// and is immutable afterwards, so one plan can serve any number of
// threads concurrently; per-call scratch lives in an FftWorkspace owned
// by the caller (or the shared thread-local one).
//
// Bit-exactness contract: a planned transform produces results that are
// bit-identical to the planless fft()/ifft() reference, because the
// tables are generated by the *same* floating-point recurrence the
// planless code evaluates inline (see build_pow2_twiddles), and the
// butterflies and pointwise products (fft_pow2_tabulated,
// multiply_spectra) run in real arithmetic over the interleaved double
// view, in the same operation order gcc lowers std::complex to:
//   re = ar*br - ai*bi,  im = ar*bi + ai*br,  then u + v / u - v.
// The one divergence from std::complex operator*: when *both* components
// of a product come out NaN, gcc calls __muldc3, which may recover an
// infinity; the real kernel keeps the NaNs. Both components cannot be
// NaN for finite operands, so finite traces never reach it. The kernel
// TU refuses to build with FMA enabled (see fft_plan.cpp). Tests assert
// planned == planless for power-of-two and Bluestein sizes, and pin
// absolute output bits for fixed inputs.
//
// Thread-safety contract:
//   * FftPlan is written only by its constructor; all member functions
//     are const. Sharing one plan across threads is race-free.
//   * get_fft_plan() keeps a process-wide registry keyed by transform
//     size behind a mutex. Plans are handed out as shared_ptr<const>.
//   * FftWorkspace is mutable scratch: one per thread (or per call).
//     thread_fft_workspace() returns a thread_local instance.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace clockmark::dsp {

/// Reusable scratch buffers for planned transforms. Buffers grow to the
/// largest size used and are reused across calls; contents are
/// overwritten on every call and never carry information between calls.
struct FftWorkspace {
  std::vector<cplx> conv;  ///< Bluestein convolution buffer (length m)
  std::vector<cplx> t0;    ///< caller scratch (circular correlation)
  std::vector<cplx> t1;
  std::vector<cplx> t2;
};

/// The per-stage twiddle factors of an n-point radix-2 FFT, flattened in
/// stage order (len = 2, 4, ..., n; len/2 values per stage; n-1 values
/// total). Generated by the exact recurrence fft_pow2 evaluates inline
/// (w(0) = 1, w(k+1) = w(k) * wlen), so butterflies fed from this table
/// are bit-identical to the planless transform.
std::vector<cplx> build_pow2_twiddles(std::size_t n, bool inverse);

/// In-place radix-2 DIT FFT reading twiddles from a prebuilt table
/// (see build_pow2_twiddles). data.size() must match the table's size.
void fft_pow2_tabulated(std::span<cplx> data,
                        std::span<const cplx> twiddles);

/// Which operand of a pointwise product is conjugated.
enum class Conjugate { kNone, kFirst };

/// out[k] = a[k] * b[k] (or std::conj(a[k]) * b[k] for kFirst), bit for
/// bit what the std::complex expression gives on finite operands (see
/// the contract above). The one product loop of the planned path:
/// Bluestein's chirp/kernel/output multiplies, circular correlation and
/// the cached-pattern sweeps all route through it. All three spans have
/// one length; out may alias a or b exactly (not partially).
void multiply_spectra(std::span<const cplx> a, std::span<const cplx> b,
                      std::span<cplx> out,
                      Conjugate conj_a = Conjugate::kNone);

class FftPlan {
 public:
  /// Builds all tables for an n-point transform (both directions).
  /// Power-of-two sizes store only the twiddle tables; other sizes
  /// additionally store the Bluestein chirp and the forward FFT of the
  /// convolution kernel for each direction.
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// DFT of `input` (length size()) into `out`, using `ws` for scratch.
  /// The inverse transform is unnormalised, exactly like the planless
  /// path (ifft applies the 1/N factor itself). `input` must not alias
  /// `out` or `ws.conv`.
  void transform(std::span<const cplx> input, bool inverse,
                 FftWorkspace& ws, std::vector<cplx>& out) const;

 private:
  std::size_t n_ = 0;
  bool pow2_ = true;
  std::size_t m_ = 0;  ///< convolution length (== n_ for powers of two)
  std::vector<cplx> tw_fwd_;     ///< m-point stage twiddles, forward
  std::vector<cplx> tw_inv_;     ///< m-point stage twiddles, inverse
  std::vector<cplx> chirp_fwd_;  ///< Bluestein w[k], forward sign
  std::vector<cplx> chirp_inv_;  ///< Bluestein w[k], inverse sign
  std::vector<cplx> fftb_fwd_;   ///< FFT of the kernel b, forward chirp
  std::vector<cplx> fftb_inv_;   ///< FFT of the kernel b, inverse chirp
};

/// Largest transform size the registry caches a plan for. Bigger
/// transforms (full-trace spectra) are one-shot and run planless; the
/// cap keeps the registry's table memory bounded.
inline constexpr std::size_t kMaxPlannedFftSize = 1u << 16u;

/// Process-wide plan registry, keyed by transform size. Returns a shared
/// immutable plan, building (and caching) it on first use. Returns
/// nullptr for n == 0 or n > kMaxPlannedFftSize.
std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n);

/// Number of plans currently cached by the registry (for tests).
std::size_t fft_plan_cache_size();

/// The calling thread's scratch workspace (grown on demand, reused by
/// fft()/ifft()/circular_cross_correlation()).
FftWorkspace& thread_fft_workspace();

}  // namespace clockmark::dsp
