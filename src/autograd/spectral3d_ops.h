#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace saufno {
namespace ops {

namespace spectral {

/// (weight_index, spectrum_index) pairs for one signed-frequency axis:
/// weight slots 0..m-1 hold positive frequencies, slots m..2m-1 negative
/// ones; both clamped to the axis Nyquist limit n/2. Exposed for the FFT
/// pruning tests.
std::vector<std::pair<int64_t, int64_t>> signed_axis_map(int64_t n,
                                                         int64_t m);

}  // namespace spectral

namespace fwd {

/// Raw spectral_conv3d forward shared by the autograd op and the plan
/// executor (single implementation => bit-identical compiled plans). When
/// the grid keeps no modes, `out` is zero-filled; otherwise every element
/// is written by the inverse FFT.
void spectral_conv3d_into(const Tensor& x, const Tensor& w, int64_t m1,
                          int64_t m2, int64_t m3, int64_t cout, Tensor& out);

}  // namespace fwd

/// Differentiable 3-D Fourier-domain convolution — the volumetric kernel
/// integral operator for models that predict the FULL 3-D temperature
/// distribution (Section IV-A: "The model output is a three-dimensional
/// temperature distribution").
///
///   x: [B, Cin, D, H, W] real
///   w: [Cin, Cout, 2*m1, 2*m2, m3, 2] — complex kernel; the first two
///      mode dims carry positive and negative frequencies along D and H
///      (same row convention as the 2-D op), the third keeps k3 = 0..m3-1;
///      the last dim is (re, im).
///
/// Forward: y = Re( IFFT3( W(k) * FFT3(x) ) ) on the kept mode set; the
/// backward applies the same adjoints as the 2-D case extended to three
/// axes (pinned by SpectralConv3dGrad.JointGradcheck):
///   gx = Re( FFT3( IFFT3(g) ⊙ W ) ),   gW = conj( IFFT3(g) ⊙ FFT3(x) ).
/// Modes are clamped to each axis's Nyquist limit, so one parameter set
/// serves every grid — including the thin z-axis of chip stacks.
///
/// Like the 2-D op, all transforms run on compact [D, H, m3e] Hermitian
/// half-spectra with the depth pass pruned to the kept H-frequencies, the
/// real-part-of-inverse folded into a k3=0 symmetrization, and transform
/// buffers served by the workspace arena.
Var spectral_conv3d(const Var& x, const Var& w, int64_t m1, int64_t m2,
                    int64_t m3, int64_t cout);

}  // namespace ops
}  // namespace saufno
