// Differentiable operations for the transformer.
//
// Each function builds the forward value eagerly and registers a closure that
// propagates gradients to its inputs.  All are verified against central
// finite differences in tests/test_autograd.cpp.
#pragma once

#include <vector>

#include "ml/autograd.hpp"
#include "nlp/vocabulary.hpp"

namespace ota::ml {

Var matmul(const Var& a, const Var& b);      ///< (m,k)x(k,n)
Var matmul_nt(const Var& a, const Var& b);   ///< (m,k)x(n,k)^T -> (m,n)
Var add(const Var& a, const Var& b);         ///< same shape
Var add_bias(const Var& a, const Var& bias); ///< bias (1,n) broadcast over rows
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);         ///< elementwise
Var scale(const Var& a, double c);
Var relu(const Var& a);
Var transpose(const Var& a);

/// Softmax along each row.
Var softmax_rows(const Var& a);
/// Adds -inf (−1e30) above the diagonal before softmax consumers: causal mask.
Var causal_mask(const Var& scores);

/// Row-wise layer normalization with learned gain/bias (1,n).
Var layer_norm(const Var& a, const Var& gamma, const Var& beta,
               double eps = 1e-5);

/// Gathers rows of `table` (V,d) by token id -> (L,d).
Var embedding(const Var& table, const std::vector<nlp::TokenId>& ids);

/// Horizontal concatenation of equal-row tensors (the multi-head join).
Var concat_cols(const std::vector<Var>& parts);
/// Columns [begin, begin + count) of `a` (a head's block of a fused
/// projection), the inverse of concat_cols.  The backward pass adds into the
/// block, so overlapping slices of one tensor accumulate.  Throws
/// InvalidArgument when the block does not fit.
Var slice_cols(const Var& a, int64_t begin, int64_t count);

/// Inverted dropout; identity when !training or p == 0.
Var dropout(const Var& a, double p, bool training, Rng& rng);

/// Sum of all elements -> scalar.
Var sum(const Var& a);

/// Mean weighted cross-entropy between rows of `logits` (L,V) and `targets`
/// (length L), with one weight per position (the paper's 20% uplift on
/// numeric tokens).  Softmax is fused for numerical stability.
Var cross_entropy(const Var& logits, const std::vector<nlp::TokenId>& targets,
                  const std::vector<double>& weights);

}  // namespace ota::ml
