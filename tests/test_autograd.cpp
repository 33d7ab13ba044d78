// Autograd correctness: every op's analytic gradient against central finite
// differences, plus graph-machinery edge cases.
#include "ml/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"

namespace ota::ml {
namespace {

// Central finite-difference check of d(loss)/d(param) for an arbitrary
// scalar-producing closure.  Rebuilds the graph per evaluation.
void gradcheck(const std::function<Var()>& build, const Var& param,
               double tol = 1e-6, double h = 1e-6) {
  // Earlier gradchecks in the same test may have accumulated into this
  // parameter; start from a clean slate.
  if (param->grad.same_shape(param->value)) param->grad.zero();
  Var loss = build();
  backward(loss);
  const Tensor analytic = param->grad;
  ASSERT_TRUE(analytic.same_shape(param->value));

  for (int64_t i = 0; i < param->value.size(); ++i) {
    const double saved = param->value.at(i);
    param->value.at(i) = saved + h;
    const double up = build()->value.at(0);
    param->value.at(i) = saved - h;
    const double down = build()->value.at(0);
    param->value.at(i) = saved;
    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic.at(i), fd, tol * std::max(1.0, std::fabs(fd)))
        << "component " << i;
  }
  // Clear accumulated grads for any reuse.
  param->grad.zero();
}

Tensor random_tensor(int64_t r, int64_t c, Rng& rng, double s = 1.0) {
  Tensor t(r, c);
  for (auto& v : t.data()) v = rng.normal(0.0, s);
  return t;
}

class AutogradTest : public ::testing::Test {
 protected:
  Rng rng{7};
};

TEST_F(AutogradTest, MatmulGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var b = parameter(random_tensor(4, 2, rng));
  gradcheck([&] { return sum(matmul(a, b)); }, a);
  gradcheck([&] { return sum(matmul(a, b)); }, b);
}

TEST_F(AutogradTest, MatmulNtGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var b = parameter(random_tensor(5, 4, rng));
  gradcheck([&] { return sum(matmul_nt(a, b)); }, a);
  gradcheck([&] { return sum(matmul_nt(a, b)); }, b);
}

TEST_F(AutogradTest, AddSubMulGradients) {
  Var a = parameter(random_tensor(2, 3, rng));
  Var b = parameter(random_tensor(2, 3, rng));
  gradcheck([&] { return sum(mul(add(a, b), sub(a, b))); }, a);
  gradcheck([&] { return sum(mul(add(a, b), sub(a, b))); }, b);
}

TEST_F(AutogradTest, AddBiasGradient) {
  Var a = parameter(random_tensor(4, 3, rng));
  Var bias = parameter(random_tensor(1, 3, rng));
  gradcheck([&] { return sum(mul(add_bias(a, bias), add_bias(a, bias))); }, bias);
  gradcheck([&] { return sum(mul(add_bias(a, bias), add_bias(a, bias))); }, a);
}

TEST_F(AutogradTest, ScaleAndReluGradients) {
  Var a = parameter(random_tensor(3, 3, rng));
  gradcheck([&] { return sum(relu(scale(a, 2.5))); }, a);
}

TEST_F(AutogradTest, TransposeGradient) {
  Var a = parameter(random_tensor(2, 5, rng));
  Var m = parameter(random_tensor(2, 5, rng));
  gradcheck([&] { return sum(mul(transpose(a), transpose(m))); }, a);
}

TEST_F(AutogradTest, SoftmaxGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var w = constant(random_tensor(3, 4, rng));
  gradcheck([&] { return sum(mul(softmax_rows(a), w)); }, a, 1e-5);
}

TEST_F(AutogradTest, CausalMaskGradient) {
  Var a = parameter(random_tensor(4, 4, rng));
  Var w = constant(random_tensor(4, 4, rng));
  gradcheck([&] { return sum(mul(softmax_rows(causal_mask(a)), w)); }, a, 1e-5);
}

TEST_F(AutogradTest, CausalMaskZerosUpperTriangle) {
  Var a = constant(random_tensor(3, 3, rng));
  const Var m = softmax_rows(causal_mask(a));
  EXPECT_NEAR(m->value(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(m->value(0, 2), 0.0, 1e-12);
  EXPECT_NEAR(m->value(1, 2), 0.0, 1e-12);
  EXPECT_NEAR(m->value(0, 0), 1.0, 1e-12);  // row sums to one on the diagonal
}

TEST_F(AutogradTest, LayerNormGradient) {
  Var a = parameter(random_tensor(3, 6, rng));
  Var gamma = parameter(random_tensor(1, 6, rng, 0.5));
  Var beta = parameter(random_tensor(1, 6, rng, 0.5));
  Var w = constant(random_tensor(3, 6, rng));
  auto build = [&] { return sum(mul(layer_norm(a, gamma, beta), w)); };
  gradcheck(build, a, 1e-5);
  gradcheck(build, gamma, 1e-5);
  gradcheck(build, beta, 1e-5);
}

TEST_F(AutogradTest, LayerNormNormalizesRows) {
  Var a = constant(random_tensor(2, 8, rng, 3.0));
  Var gamma = constant(Tensor(1, 8, 1.0));
  Var beta = constant(Tensor(1, 8, 0.0));
  const Var o = layer_norm(a, gamma, beta);
  for (int64_t r = 0; r < 2; ++r) {
    double mu = 0.0;
    for (int64_t c = 0; c < 8; ++c) mu += o->value(r, c);
    EXPECT_NEAR(mu / 8.0, 0.0, 1e-9);
  }
}

TEST_F(AutogradTest, EmbeddingGradientScattersByToken) {
  Var table = parameter(random_tensor(5, 3, rng));
  const std::vector<nlp::TokenId> ids{1, 3, 1};
  Var loss = sum(embedding(table, ids));
  backward(loss);
  // Token 1 used twice -> gradient 2 per column; token 3 once; others zero.
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(table->grad(1, c), 2.0);
    EXPECT_DOUBLE_EQ(table->grad(3, c), 1.0);
    EXPECT_DOUBLE_EQ(table->grad(0, c), 0.0);
  }
}

TEST_F(AutogradTest, ConcatColsGradient) {
  Var a = parameter(random_tensor(3, 2, rng));
  Var b = parameter(random_tensor(3, 4, rng));
  Var w = constant(random_tensor(3, 6, rng));
  gradcheck([&] { return sum(mul(concat_cols({a, b}), w)); }, a);
  gradcheck([&] { return sum(mul(concat_cols({a, b}), w)); }, b);
}

TEST_F(AutogradTest, SliceColsGradient) {
  Var a = parameter(random_tensor(3, 5, rng));
  Var w1 = constant(random_tensor(3, 3, rng));
  Var w2 = constant(random_tensor(3, 2, rng));
  // Columns [1, 4) and [2, 4) overlap: their gradients must add, not
  // overwrite each other.
  gradcheck([&] {
    return add(sum(mul(slice_cols(a, 1, 3), w1)),
               sum(mul(slice_cols(a, 2, 2), w2)));
  }, a);
  EXPECT_THROW((void)slice_cols(a, 3, 3), InvalidArgument);
  EXPECT_THROW((void)slice_cols(a, -1, 2), InvalidArgument);
  EXPECT_THROW((void)slice_cols(a, 0, 0), InvalidArgument);
}

TEST_F(AutogradTest, CrossEntropyGradient) {
  Var logits = parameter(random_tensor(4, 6, rng));
  const std::vector<nlp::TokenId> targets{2, 0, 5, 1};
  const std::vector<double> weights{1.0, 1.2, 1.0, 1.2};
  gradcheck([&] { return cross_entropy(logits, targets, weights); }, logits, 1e-5);
}

TEST_F(AutogradTest, CrossEntropyWeightingShiftsLoss) {
  // Increasing the weight on a poorly predicted position raises the loss.
  Tensor t(2, 3);
  t(0, 0) = 5.0;              // position 0 predicts class 0 well
  t(1, 0) = 5.0;              // position 1 predicts class 0 but target is 2
  Var logits = constant(t);
  const std::vector<nlp::TokenId> targets{0, 2};
  const double base =
      cross_entropy(logits, targets, {1.0, 1.0})->value.at(0);
  const double upweighted =
      cross_entropy(logits, targets, {1.0, 2.0})->value.at(0);
  EXPECT_GT(upweighted, base);
}

TEST_F(AutogradTest, DropoutTrainFalseIsIdentity) {
  Var a = parameter(random_tensor(3, 3, rng));
  const Var out = dropout(a, 0.5, /*training=*/false, rng);
  EXPECT_EQ(out.get(), a.get());
}

TEST_F(AutogradTest, DropoutPreservesExpectation) {
  Rng local(99);
  Var a = constant(Tensor(1, 10000, 1.0));
  const Var out = dropout(a, 0.3, /*training=*/true, local);
  double mean = 0.0;
  for (double v : out->value.data()) mean += v;
  mean /= static_cast<double>(out->value.size());
  EXPECT_NEAR(mean, 1.0, 0.05);  // inverted dropout keeps E[x]
}

TEST_F(AutogradTest, BackwardRequiresScalarRoot) {
  Var a = parameter(random_tensor(2, 2, rng));
  EXPECT_THROW(backward(add(a, a)), InvalidArgument);
}

TEST_F(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Var a = parameter(Tensor(1, 1, 2.0));
  backward(scale(a, 3.0));
  backward(scale(a, 3.0));
  EXPECT_DOUBLE_EQ(a->grad.at(0), 6.0);  // 3 + 3
}

TEST_F(AutogradTest, DiamondGraphAccumulatesBothBranches) {
  // loss = sum(a*a + a): both paths contribute to a's gradient.
  Var a = parameter(Tensor(1, 1, 3.0));
  Var loss = sum(add(mul(a, a), a));
  backward(loss);
  EXPECT_DOUBLE_EQ(a->grad.at(0), 7.0);  // 2*3 + 1
}

TEST_F(AutogradTest, BackwardReleasesInteriorGrads) {
  Var a = parameter(Tensor(1, 1, 3.0));
  Var square = mul(a, a);
  Var both = add(square, a);
  Var loss = sum(both);
  backward(loss);
  for (const Var& interior : {square, both, loss}) {
    EXPECT_EQ(interior->grad.size(), 0);
  }
  EXPECT_DOUBLE_EQ(a->grad.at(0), 7.0);
  // Released grads restart from zero, so a second pass over the same graph
  // adds exactly one more gradient to the leaf.
  backward(loss);
  EXPECT_DOUBLE_EQ(a->grad.at(0), 14.0);
}

}  // namespace
}  // namespace ota::ml
