#pragma once

#include "nn/linear.h"

namespace saufno {
namespace core {

/// Self-attention block of Section III-B (Fig. 2 / Eq. 9-10).
///
/// All embeddings are 1x1 convolutions, which is what preserves the
/// operator's mesh invariance: the block works at any H, W with one
/// parameter set.
///
///   Q = W_q V_t,  K = W_k V_t           (d-channel embeddings)
///   s_ij = Q_i^T K_j / sqrt(d),  A_s = softmax_j(s_ij)   (spatial map)
///   A_c = W_h V_t                        (channel-attention/value map)
///   V'_i = sum_j A_s[i, j] * A_c[:, j]   (combination of Eq. 10)
///   out  = V_t + W_o V'                  (residual, 1x1 output map)
///
/// The paper's literal "A_s (x) A_c elementwise" is shape-inconsistent
/// (A_s is NxN, A_c is CxN); the standard non-local-block reading above is
/// the faithful executable interpretation — each position aggregates the
/// value map with its spatial attention weights (see DESIGN.md).
///
/// The scores, softmax and combination run as one ops::attention call,
/// row-blocked over query positions: no [B, N, N] tensor is materialized in
/// the forward, in the interpreter or in a compiled plan (kAttention).
class SelfAttentionBlock : public nn::Module {
 public:
  /// `channels`: feature channels of V_t; `d`: Q/K embedding dimension
  /// (the paper uses d = 64 at width 64; we default to channels).
  SelfAttentionBlock(int64_t channels, int64_t d, Rng& rng);

  Var forward(const Var& x) override;

 private:
  int64_t channels_, d_;
  nn::PointwiseConv* wq_;
  nn::PointwiseConv* wk_;
  nn::PointwiseConv* wh_;
  nn::PointwiseConv* wo_;
};

}  // namespace core
}  // namespace saufno
