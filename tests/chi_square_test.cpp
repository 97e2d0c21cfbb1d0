#include "features/chi_square.hpp"

#include "test_helpers.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

namespace prodigy::features {
namespace {

TEST(Chi2Test, DiscriminativeFeatureRankedFirst) {
  // Column 0 separates classes perfectly; columns 1-2 are uniform noise.
  util::Rng rng(1);
  tensor::Matrix X(200, 3);
  std::vector<int> y(200);
  for (std::size_t r = 0; r < 200; ++r) {
    y[r] = r < 100 ? 0 : 1;
    X(r, 0) = y[r] == 1 ? rng.uniform(0.8, 1.0) : rng.uniform(0.0, 0.2);
    X(r, 1) = rng.uniform();
    X(r, 2) = rng.uniform();
  }
  const auto scores = chi2_scores(X, y);
  EXPECT_GT(scores[0], scores[1] * 5.0);
  EXPECT_GT(scores[0], scores[2] * 5.0);
  const auto top = top_k_indices(scores, 1);
  EXPECT_EQ(top[0], 0u);
}

TEST(Chi2Test, RequiresBothClasses) {
  tensor::Matrix X(4, 2, 1.0);
  EXPECT_THROW(chi2_scores(X, {0, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(chi2_scores(X, {1, 1, 1, 1}), std::invalid_argument);
}

TEST(Chi2Test, RejectsNegativeFeatures) {
  tensor::Matrix X{{-1.0, 0.5}, {0.2, 0.3}};
  EXPECT_THROW(chi2_scores(X, {0, 1}), std::invalid_argument);
}

TEST(Chi2Test, TermMatchesClassicFormulaWhenExpectedPositive) {
  // The pseudo-count path only engages at expected == 0; every
  // well-conditioned cell keeps the textbook (O - E)^2 / E value.
  EXPECT_DOUBLE_EQ(chi2_term(10.0, 4.0), 36.0 / 4.0);
  EXPECT_DOUBLE_EQ(chi2_term(0.0, 4.0), 16.0 / 4.0);
  EXPECT_DOUBLE_EQ(chi2_term(4.0, 4.0), 0.0);
}

TEST(Chi2Test, TermZeroExpectedUsesPseudoCount) {
  // expected == 0 with observed > 0 historically contributed NOTHING (the
  // guard silently skipped the cell); it now scores O^2 / 0.5.
  EXPECT_DOUBLE_EQ(chi2_term(10.0, 0.0), 100.0 / 0.5);
  // Any representable evidence counts (observed^2 must not underflow).
  EXPECT_GT(chi2_term(1e-9, 0.0), 0.0);
  // No observation and no expectation is genuinely zero information.
  EXPECT_DOUBLE_EQ(chi2_term(0.0, 0.0), 0.0);
}

TEST(Chi2Test, ScoresUnchangedOnWellConditionedInputs) {
  // Regression pin: on inputs where every expected frequency is positive
  // (all realistic min-max-scaled datasets), chi2_scores must reproduce the
  // pre-pseudo-count arithmetic bit for bit.
  util::Rng rng(7);
  tensor::Matrix X(60, 4);
  std::vector<int> y(60);
  for (std::size_t r = 0; r < 60; ++r) {
    y[r] = r % 3 == 0 ? 1 : 0;
    for (std::size_t c = 0; c < 4; ++c) {
      X(r, c) = c == 0 ? (y[r] ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.5))
                       : rng.uniform();
    }
  }
  const auto scores = chi2_scores(X, y);
  const double p_pos = 20.0 / 60.0;
  for (std::size_t c = 0; c < 4; ++c) {
    double obs_pos = 0.0, obs_neg = 0.0;
    for (std::size_t r = 0; r < 60; ++r) {
      (y[r] ? obs_pos : obs_neg) += X(r, c);
    }
    const double total = obs_pos + obs_neg;
    const double exp_pos = total * p_pos;
    const double exp_neg = total * (1.0 - p_pos);
    // The historical loop body, verbatim.
    double chi2 = 0.0;
    if (exp_pos > 0.0) {
      const double d = obs_pos - exp_pos;
      chi2 += d * d / exp_pos;
    }
    if (exp_neg > 0.0) {
      const double d = obs_neg - exp_neg;
      chi2 += d * d / exp_neg;
    }
    EXPECT_DOUBLE_EQ(scores[c], chi2) << "column " << c;
  }
}

TEST(Chi2Test, ClampsFloatingPointNoiseBelowZero) {
  // Min-max scaling can leave values a hair under 0; they must be treated
  // as exact zeros, not rejected.
  tensor::Matrix noisy{{-1e-12, 0.5}, {0.2, 0.3}, {-5e-10, 0.4}, {0.9, 0.1}};
  tensor::Matrix exact{{0.0, 0.5}, {0.2, 0.3}, {0.0, 0.4}, {0.9, 0.1}};
  const std::vector<int> y{0, 0, 1, 1};
  const auto noisy_scores = chi2_scores(noisy, y);
  const auto exact_scores = chi2_scores(exact, y);
  ASSERT_EQ(noisy_scores.size(), exact_scores.size());
  for (std::size_t c = 0; c < noisy_scores.size(); ++c) {
    EXPECT_NEAR(noisy_scores[c], exact_scores[c], 1e-9);
  }
}

TEST(Chi2Test, GenuinelyNegativeStillRejected) {
  tensor::Matrix X{{-1e-6, 0.5}, {0.2, 0.3}};
  EXPECT_THROW(chi2_scores(X, {0, 1}), std::invalid_argument);
}

TEST(Chi2Test, RejectsSizeMismatch) {
  tensor::Matrix X(4, 2, 1.0);
  EXPECT_THROW(chi2_scores(X, {0, 1}), std::invalid_argument);
}

TEST(Chi2Test, AllZeroFeatureScoresZero) {
  tensor::Matrix X(4, 2, 0.0);
  X(0, 1) = 1.0;
  X(3, 1) = 2.0;
  const auto scores = chi2_scores(X, {0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_GT(scores[1], 0.0);
}

TEST(Chi2Test, BalancedFeatureScoresNearZero) {
  // Equal class sums -> observed == expected -> chi2 == 0.
  tensor::Matrix X{{1.0}, {2.0}, {1.0}, {2.0}};
  const auto scores = chi2_scores(X, {0, 0, 1, 1});
  EXPECT_NEAR(scores[0], 0.0, 1e-12);
}

TEST(TopKTest, OrdersDescendingAndDeterministicTies) {
  const std::vector<double> scores{1.0, 5.0, 3.0, 5.0};
  const auto top = top_k_indices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // ties broken by lower index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(TopKTest, ClampsKToSize) {
  const std::vector<double> scores{1.0, 2.0};
  EXPECT_EQ(top_k_indices(scores, 10).size(), 2u);
}

TEST(SelectFeaturesTest, Chi2PipelineFindsShiftedColumns) {
  // Columns 0..3 shifted for anomalies, 4..9 identical noise.
  util::Rng rng(2);
  FeatureDataset dataset;
  dataset.X = tensor::Matrix(300, 10);
  dataset.labels.resize(300);
  dataset.meta.resize(300);
  for (std::size_t r = 0; r < 300; ++r) {
    dataset.labels[r] = r < 250 ? 0 : 1;
    for (std::size_t c = 0; c < 10; ++c) {
      double value = rng.uniform(0.2, 0.4);
      if (c < 4 && dataset.labels[r] == 1) value += 0.5;
      dataset.X(r, c) = value;
    }
  }
  for (std::size_t c = 0; c < 10; ++c) {
    // Appended: gcc 12's -Wrestrict misfires on "f" + std::to_string(c).
    std::string name = "f";
    name += std::to_string(c);
    dataset.feature_names.push_back(std::move(name));
  }
  const SelectionResult result = select_features_chi2(dataset, 4);
  ASSERT_EQ(result.selected.size(), 4u);
  for (const auto idx : result.selected) EXPECT_LT(idx, 4u);
}

TEST(SelectFeaturesTest, VarianceSelectionLabelFree) {
  FeatureDataset dataset;
  dataset.X = tensor::Matrix(50, 3);
  util::Rng rng(3);
  for (std::size_t r = 0; r < 50; ++r) {
    dataset.X(r, 0) = 10.0;                        // constant -> score 0
    dataset.X(r, 1) = r % 2 ? 100.0 : -100.0;      // max scaled variance
    dataset.X(r, 2) = rng.uniform(0.0, 0.1) + 5.0; // small spread
  }
  dataset.labels.assign(50, 0);  // single class: chi2 would throw
  dataset.meta.resize(50);
  dataset.feature_names = {"a", "b", "c"};
  const SelectionResult result = select_features_variance(dataset, 2);
  EXPECT_EQ(result.selected[0], 1u);
  EXPECT_DOUBLE_EQ(result.scores[0], 0.0);
}

}  // namespace
}  // namespace prodigy::features
