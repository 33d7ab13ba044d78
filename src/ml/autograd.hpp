// Tape-free reverse-mode autograd over Tensor.
//
// Every operation builds a Node holding its output value, its parents, and a
// closure that routes the output gradient into the parents' gradients.
// backward() runs the closures in reverse topological order and frees each
// interior node's gradient once it has been routed, so after backward() only
// leaves (parameters) hold gradients.  Ops live in ml/ops.hpp; this header is
// only the graph machinery.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ml/tensor.hpp"

namespace ota::ml {

struct Node;
using Var = std::shared_ptr<Node>;

struct Node {
  Tensor value;
  /// Allocated lazily, same shape as value.  backward() resets an interior
  /// node's (one with a backward_fn) to an empty Tensor right after routing
  /// it into the parents; leaves keep theirs for the optimizer.
  Tensor grad;
  std::vector<Var> parents;
  std::function<void(Node&)> backward_fn;  ///< routes grad into parents
  bool requires_grad = false;

  explicit Node(Tensor v) : value(std::move(v)) {}

  /// Ensures grad exists (zero-filled) and returns it.
  Tensor& ensure_grad();
};

/// Leaf with gradient tracking (model weights).
Var parameter(Tensor value);
/// Leaf without gradient (inputs, masks, positional tables).
Var constant(Tensor value);

/// Runs reverse-mode accumulation from a scalar (1x1) root.  Leaf gradients
/// accumulate across calls; interior gradients are empty afterwards.
void backward(const Var& root);

/// Internal helper for op implementations: builds a node whose
/// requires_grad is the OR of its parents'.
Var make_node(Tensor value, std::vector<Var> parents,
              std::function<void(Node&)> backward_fn);

}  // namespace ota::ml
