#include "ml/ops.hpp"

#include <cmath>

namespace ota::ml {

namespace {

void check_same_shape(const Var& a, const Var& b, const char* op) {
  if (!a->value.same_shape(b->value)) {
    throw InvalidArgument(std::string(op) + ": shape mismatch");
  }
}

}  // namespace

Var matmul(const Var& a, const Var& b) {
  Tensor out;
  matmul_into(a->value, b->value, out);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    // dL/dA = G * B^T ; dL/dB = A^T * G.
    if (a->requires_grad) matmul_nt_acc(n.grad, b->value, a->ensure_grad());
    if (b->requires_grad) matmul_tn_acc(a->value, n.grad, b->ensure_grad());
  });
}

Var matmul_nt(const Var& a, const Var& b) {
  Tensor out;
  matmul_nt_into(a->value, b->value, out);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    // C = A B^T: dA = G B ; dB = G^T A.
    if (a->requires_grad) matmul_acc(n.grad, b->value, a->ensure_grad());
    if (b->requires_grad) matmul_tn_acc(n.grad, a->value, b->ensure_grad());
  });
}

Var add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  Tensor out = a->value;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) += b->value.at(i);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    for (const Var& p : {a, b}) {
      if (!p->requires_grad) continue;
      Tensor& g = p->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i);
    }
  });
}

Var add_bias(const Var& a, const Var& bias) {
  if (bias->value.rows() != 1 || bias->value.cols() != a->value.cols()) {
    throw InvalidArgument("add_bias: bias must be (1, cols)");
  }
  Tensor out = a->value;
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = 0; c < out.cols(); ++c) out(r, c) += bias->value(0, c);
  }
  return make_node(std::move(out), {a, bias}, [a, bias](Node& n) {
    if (a->requires_grad) {
      Tensor& g = a->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i);
    }
    if (bias->requires_grad) {
      Tensor& g = bias->ensure_grad();
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        for (int64_t c = 0; c < n.grad.cols(); ++c) g(0, c) += n.grad(r, c);
      }
    }
  });
}

Var sub(const Var& a, const Var& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a->value;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) -= b->value.at(i);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    if (a->requires_grad) {
      Tensor& g = a->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i);
    }
    if (b->requires_grad) {
      Tensor& g = b->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) -= n.grad.at(i);
    }
  });
}

Var mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a->value;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) *= b->value.at(i);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    if (a->requires_grad) {
      Tensor& g = a->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i) * b->value.at(i);
    }
    if (b->requires_grad) {
      Tensor& g = b->ensure_grad();
      for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i) * a->value.at(i);
    }
  });
}

Var scale(const Var& a, double c) {
  Tensor out = a->value;
  for (auto& v : out.data()) v *= c;
  return make_node(std::move(out), {a}, [a, c](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) g.at(i) += c * n.grad.at(i);
  });
}

Var relu(const Var& a) {
  Tensor out = a->value;
  for (auto& v : out.data()) v = v > 0.0 ? v : 0.0;
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (a->value.at(i) > 0.0) g.at(i) += n.grad.at(i);
    }
  });
}

Var transpose(const Var& a) {
  Tensor out(a->value.cols(), a->value.rows());
  for (int64_t r = 0; r < a->value.rows(); ++r) {
    for (int64_t c = 0; c < a->value.cols(); ++c) out(c, r) = a->value(r, c);
  }
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t r = 0; r < n.grad.rows(); ++r) {
      for (int64_t c = 0; c < n.grad.cols(); ++c) g(c, r) += n.grad(r, c);
    }
  });
}

Var softmax_rows(const Var& a) {
  Tensor out = a->value;
  for (int64_t r = 0; r < out.rows(); ++r) {
    double mx = -1e300;
    for (int64_t c = 0; c < out.cols(); ++c) mx = std::max(mx, out(r, c));
    double denom = 0.0;
    for (int64_t c = 0; c < out.cols(); ++c) {
      out(r, c) = std::exp(out(r, c) - mx);
      denom += out(r, c);
    }
    for (int64_t c = 0; c < out.cols(); ++c) out(r, c) /= denom;
  }
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!a->requires_grad) return;
    // dL/dx_j = s_j * (g_j - sum_k g_k s_k) per row.
    Tensor& g = a->ensure_grad();
    for (int64_t r = 0; r < n.value.rows(); ++r) {
      double dot = 0.0;
      for (int64_t c = 0; c < n.value.cols(); ++c) {
        dot += n.grad(r, c) * n.value(r, c);
      }
      for (int64_t c = 0; c < n.value.cols(); ++c) {
        g(r, c) += n.value(r, c) * (n.grad(r, c) - dot);
      }
    }
  });
}

Var causal_mask(const Var& scores) {
  Tensor out = scores->value;
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = r + 1; c < out.cols(); ++c) out(r, c) = -1e30;
  }
  return make_node(std::move(out), {scores}, [scores](Node& n) {
    if (!scores->requires_grad) return;
    Tensor& g = scores->ensure_grad();
    for (int64_t r = 0; r < n.grad.rows(); ++r) {
      for (int64_t c = 0; c <= std::min(r, n.grad.cols() - 1); ++c) {
        g(r, c) += n.grad(r, c);
      }
    }
  });
}

Var layer_norm(const Var& a, const Var& gamma, const Var& beta, double eps) {
  const int64_t rows = a->value.rows(), cols = a->value.cols();
  if (gamma->value.cols() != cols || beta->value.cols() != cols) {
    throw InvalidArgument("layer_norm: gain/bias width mismatch");
  }
  Tensor out(rows, cols);
  // Keep the per-row statistics for the backward pass.
  auto mean = std::make_shared<std::vector<double>>(static_cast<size_t>(rows));
  auto rstd = std::make_shared<std::vector<double>>(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double mu = 0.0;
    for (int64_t c = 0; c < cols; ++c) mu += a->value(r, c);
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double d = a->value(r, c) - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const double rs = 1.0 / std::sqrt(var + eps);
    (*mean)[static_cast<size_t>(r)] = mu;
    (*rstd)[static_cast<size_t>(r)] = rs;
    for (int64_t c = 0; c < cols; ++c) {
      out(r, c) = gamma->value(0, c) * (a->value(r, c) - mu) * rs +
                  beta->value(0, c);
    }
  }
  return make_node(std::move(out), {a, gamma, beta},
                   [a, gamma, beta, mean, rstd](Node& n) {
    const int64_t rows = a->value.rows(), cols = a->value.cols();
    for (int64_t r = 0; r < rows; ++r) {
      const double mu = (*mean)[static_cast<size_t>(r)];
      const double rs = (*rstd)[static_cast<size_t>(r)];
      // xhat and the two reduction terms of the layer-norm backward.
      double sum_gy = 0.0, sum_gy_xhat = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        const double xhat = (a->value(r, c) - mu) * rs;
        const double gy = n.grad(r, c) * gamma->value(0, c);
        sum_gy += gy;
        sum_gy_xhat += gy * xhat;
      }
      if (a->requires_grad) {
        Tensor& g = a->ensure_grad();
        const double inv_n = 1.0 / static_cast<double>(cols);
        for (int64_t c = 0; c < cols; ++c) {
          const double xhat = (a->value(r, c) - mu) * rs;
          const double gy = n.grad(r, c) * gamma->value(0, c);
          g(r, c) += rs * (gy - inv_n * sum_gy - inv_n * xhat * sum_gy_xhat);
        }
      }
      if (gamma->requires_grad) {
        Tensor& gg = gamma->ensure_grad();
        for (int64_t c = 0; c < cols; ++c) {
          const double xhat = (a->value(r, c) - mu) * rs;
          gg(0, c) += n.grad(r, c) * xhat;
        }
      }
      if (beta->requires_grad) {
        Tensor& gb = beta->ensure_grad();
        for (int64_t c = 0; c < cols; ++c) gb(0, c) += n.grad(r, c);
      }
    }
  });
}

Var embedding(const Var& table, const std::vector<nlp::TokenId>& ids) {
  const int64_t v = table->value.rows(), d = table->value.cols();
  if (ids.empty()) throw InvalidArgument("embedding: empty id list");
  Tensor out(static_cast<int64_t>(ids.size()), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto id = ids[i];
    if (id < 0 || id >= v) throw InvalidArgument("embedding: id out of range");
    for (int64_t c = 0; c < d; ++c) {
      out(static_cast<int64_t>(i), c) = table->value(id, c);
    }
  }
  return make_node(std::move(out), {table}, [table, ids](Node& n) {
    if (!table->requires_grad) return;
    Tensor& g = table->ensure_grad();
    for (size_t i = 0; i < ids.size(); ++i) {
      for (int64_t c = 0; c < n.grad.cols(); ++c) {
        g(ids[i], c) += n.grad(static_cast<int64_t>(i), c);
      }
    }
  });
}

Var concat_cols(const std::vector<Var>& parts) {
  if (parts.empty()) throw InvalidArgument("concat_cols: no inputs");
  const int64_t rows = parts[0]->value.rows();
  int64_t total = 0;
  for (const auto& p : parts) {
    if (p->value.rows() != rows) {
      throw InvalidArgument("concat_cols: row count mismatch");
    }
    total += p->value.cols();
  }
  Tensor out(rows, total);
  int64_t offset = 0;
  for (const auto& p : parts) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < p->value.cols(); ++c) {
        out(r, offset + c) = p->value(r, c);
      }
    }
    offset += p->value.cols();
  }
  return make_node(std::move(out), parts, [parts](Node& n) {
    int64_t offset = 0;
    for (const auto& p : parts) {
      if (p->requires_grad) {
        Tensor& g = p->ensure_grad();
        for (int64_t r = 0; r < g.rows(); ++r) {
          for (int64_t c = 0; c < g.cols(); ++c) {
            g(r, c) += n.grad(r, offset + c);
          }
        }
      }
      offset += p->value.cols();
    }
  });
}

Var slice_cols(const Var& a, int64_t begin, int64_t count) {
  const int64_t rows = a->value.rows(), cols = a->value.cols();
  if (begin < 0 || count <= 0 || begin > cols - count) {
    throw InvalidArgument("slice_cols: columns [" + std::to_string(begin) +
                          ", " + std::to_string(begin + count) +
                          ") out of range for width " + std::to_string(cols));
  }
  Tensor out(rows, count);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < count; ++c) out(r, c) = a->value(r, begin + c);
  }
  return make_node(std::move(out), {a}, [a, begin](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t r = 0; r < n.grad.rows(); ++r) {
      for (int64_t c = 0; c < n.grad.cols(); ++c) {
        g(r, begin + c) += n.grad(r, c);
      }
    }
  });
}

Var dropout(const Var& a, double p, bool training, Rng& rng) {
  if (!training || p <= 0.0) return a;
  if (p >= 1.0) throw InvalidArgument("dropout: p must be < 1");
  auto mask = std::make_shared<Tensor>(a->value.rows(), a->value.cols());
  const double keep = 1.0 - p;
  for (int64_t i = 0; i < mask->size(); ++i) {
    mask->at(i) = rng.bernoulli(keep) ? 1.0 / keep : 0.0;
  }
  Tensor out = a->value;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) *= mask->at(i);
  return make_node(std::move(out), {a}, [a, mask](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i) * mask->at(i);
  });
}

Var sum(const Var& a) {
  Tensor out(1, 1);
  for (double v : a->value.data()) out.at(0) += v;
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(0);
  });
}

Var cross_entropy(const Var& logits, const std::vector<nlp::TokenId>& targets,
                  const std::vector<double>& weights) {
  const int64_t rows = logits->value.rows(), cols = logits->value.cols();
  if (static_cast<int64_t>(targets.size()) != rows ||
      weights.size() != targets.size()) {
    throw InvalidArgument("cross_entropy: size mismatch");
  }
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  if (total_weight <= 0.0) throw InvalidArgument("cross_entropy: zero weight");

  // Fused log-softmax: store probabilities for the backward pass.
  auto probs = std::make_shared<Tensor>(rows, cols);
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const auto t = targets[static_cast<size_t>(r)];
    if (t < 0 || t >= cols) throw InvalidArgument("cross_entropy: bad target");
    double mx = -1e300;
    for (int64_t c = 0; c < cols; ++c) mx = std::max(mx, logits->value(r, c));
    double denom = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      (*probs)(r, c) = std::exp(logits->value(r, c) - mx);
      denom += (*probs)(r, c);
    }
    for (int64_t c = 0; c < cols; ++c) (*probs)(r, c) /= denom;
    loss -= weights[static_cast<size_t>(r)] *
            std::log(std::max((*probs)(r, t), 1e-300));
  }
  Tensor out(1, 1);
  out.at(0) = loss / total_weight;

  return make_node(std::move(out), {logits},
                   [logits, targets, weights, probs, total_weight](Node& n) {
    if (!logits->requires_grad) return;
    Tensor& g = logits->ensure_grad();
    const double upstream = n.grad.at(0) / total_weight;
    for (int64_t r = 0; r < g.rows(); ++r) {
      const double w = weights[static_cast<size_t>(r)] * upstream;
      const auto t = targets[static_cast<size_t>(r)];
      for (int64_t c = 0; c < g.cols(); ++c) {
        g(r, c) += w * ((*probs)(r, c) - (c == t ? 1.0 : 0.0));
      }
    }
  });
}

}  // namespace ota::ml
