#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace saufno {
namespace ops {

namespace spectral {

/// Kept-mode row indices in the H-point spectrum for effective mode count
/// m1e out of configured m1: weight row r < m1 maps to k1 = r (kept iff
/// r < m1e), weight row m1 + s maps to k1 = H - m1e + s.
struct ModeMap {
  // (weight_row, spectrum_row) pairs actually used at this resolution.
  std::vector<std::pair<int64_t, int64_t>> rows;
  int64_t m2e = 0;  // columns 0..m2e-1 used
};

/// Exposed so the FFT pruning tests can exercise the exact kept-mode sets
/// the spectral layers produce at every resolution.
ModeMap make_mode_map(int64_t H, int64_t W, int64_t m1, int64_t m2);

}  // namespace spectral

namespace fwd {

/// Raw spectral_conv2d forward shared by the autograd op and the plan
/// executor (single implementation => bit-identical compiled plans). When
/// the grid keeps no modes the operator is identically zero and `out` is
/// zero-filled; otherwise every element is written by the inverse FFT.
void spectral_conv2d_into(const Tensor& x, const Tensor& w, int64_t m1,
                          int64_t m2, int64_t cout, Tensor& out);

}  // namespace fwd

/// Differentiable Fourier-domain convolution — the kernel integral operator
/// K of Eq. (6)/(8) in the paper.
///
///   x: [B, Cin, H, W] real
///   w: [Cin, Cout, 2*m1, m2, 2] — learnable complex kernel rho(xi); the
///      last dim holds (re, im); row r < m1 addresses frequency k1 = r and
///      row r >= m1 addresses the negative frequency k1 = H - (2*m1 - r);
///      columns address k2 = 0..m2-1.
///
/// Forward: y = Re( IFFT2( W(k) * FFT2(x) ) ) with modes outside the kept
/// set zeroed. The op is real-linear in x, so the backward is its adjoint
/// (pinned by the SpectralConvGrad gradchecks):
///   gx = Re( FFT2( IFFT2(g) ⊙ W ) ),   gW = conj( IFFT2(g) ⊙ FFT2(x) ).
///
/// Implementation: the input is real, so both transforms run on compact
/// [H, m2e] Hermitian half-spectra (rfft_2d/irfft_2d) and the column passes
/// only ever touch the m2e kept columns — per-plane cost scales with kept
/// modes, not grid width. Taking the real part of the inverse of the
/// (non-Hermitian) weighted spectrum is algebraically folded into a column-0
/// symmetrization plus halving of the remaining kept columns, which makes
/// the truncated inverse exactly equal to the seed's
/// Re(full-complex-IFFT2). Spectra and transform buffers come from the
/// workspace arena, so steady-state forwards allocate only the output.
///
/// Mesh invariance: when H (or W) is too small for the configured modes the
/// kept set is clamped to m1_eff = min(m1, H/2), m2_eff = min(m2, W/2); the
/// extra weights simply stay unused at coarse resolutions, which is what
/// lets one parameter set serve both fidelities in transfer learning.
Var spectral_conv2d(const Var& x, const Var& w, int64_t m1, int64_t m2,
                    int64_t cout);

}  // namespace ops
}  // namespace saufno
