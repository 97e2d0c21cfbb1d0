// Real-input FFT power spectrum and the spectral summary features built on
// it (TSFRESH's fft_aggregated / spectral-density family).
#pragma once

#include "util/aligned.hpp"

#include <complex>
#include <span>
#include <vector>

namespace prodigy::features {

/// One-sided power spectrum of a mean-removed, zero-padded copy of xs.
/// Returns |X_k|^2 for k = 0 .. N/2 where N is xs.size() padded to 2^m.
/// Per-size FFT tables are built once and shared lock-free by all threads.
std::vector<double> power_spectrum(std::span<const double> xs);

/// Scratch-reusing variant: fills `power` with the one-sided spectrum using
/// `fft_buffer` as the transform workspace.  Both buffers are resized as
/// needed and keep their capacity across calls, so repeated extraction
/// (extract_node_features' per-thread scratch) does not allocate.  The
/// buffers are the 64-byte-aligned scratch type so spectra can feed the
/// feature-kernel TU's vector loads unsplit.
void power_spectrum(std::span<const double> xs,
                    util::AlignedVec<std::complex<double>>& fft_buffer,
                    util::AlignedVec<double>& power);

struct SpectralSummary {
  double total_power = 0.0;
  double centroid = 0.0;      // power-weighted mean normalized frequency
  double spread = 0.0;        // power-weighted stddev of frequency
  double entropy = 0.0;       // Shannon entropy of the normalized spectrum
  double peak_frequency = 0.0;  // normalized frequency of the strongest bin
  double band_power[4] = {0, 0, 0, 0};  // quartile frequency bands
};

SpectralSummary spectral_summary(std::span<const double> xs);

/// Summary aggregates from an already-computed one-sided power spectrum.
SpectralSummary spectral_summary_from_power(std::span<const double> power);

}  // namespace prodigy::features
