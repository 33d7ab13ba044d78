#include "ml/autograd.hpp"

#include <algorithm>
#include <unordered_set>

namespace ota::ml {

Tensor& Node::ensure_grad() {
  if (!grad.same_shape(value)) {
    grad = Tensor(value.rows(), value.cols());
  }
  return grad;
}

Var parameter(Tensor value) {
  auto n = std::make_shared<Node>(std::move(value));
  n->requires_grad = true;
  return n;
}

Var constant(Tensor value) {
  return std::make_shared<Node>(std::move(value));
}

Var make_node(Tensor value, std::vector<Var> parents,
              std::function<void(Node&)> backward_fn) {
  auto n = std::make_shared<Node>(std::move(value));
  n->requires_grad = std::any_of(parents.begin(), parents.end(),
                                 [](const Var& p) { return p->requires_grad; });
  if (n->requires_grad) {
    n->parents = std::move(parents);
    n->backward_fn = std::move(backward_fn);
  }
  return n;
}

void backward(const Var& root) {
  if (root->value.size() != 1) {
    throw InvalidArgument("backward: root must be a scalar");
  }
  // Topological order by iterative DFS.  backward() runs once per training
  // example, so the visited check is hot: a hash set (vs. a red-black tree)
  // keeps it O(1) per edge.  Only membership is queried — iteration order
  // never leaks into the gradient accumulation order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  visited.reserve(256);
  order.reserve(256);
  std::vector<std::pair<Node*, size_t>> stack{{root.get(), 0}};
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      Node* parent = node->parents[next].get();
      ++next;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // order is child-after-parents; traverse in reverse (root first).  By the
  // time a node runs, every consumer has routed into its grad, so an
  // interior node's grad is dead once it has been routed on: free it to keep
  // the peak to the live frontier of the graph.
  root->ensure_grad().fill(1.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) {
      n->backward_fn(*n);
      n->grad = Tensor();
    }
  }
}

}  // namespace ota::ml
