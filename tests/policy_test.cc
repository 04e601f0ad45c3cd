// Tests for src/policy and src/accounting: policy algebra (Definitions 3.1,
// 3.5-3.7), composition (Theorems 3.2/3.3/10.2), budgets.

#include <limits>

#include <gtest/gtest.h>

#include "src/common/check.h"

#include "src/accounting/budget.h"
#include "src/accounting/composition.h"
#include "src/policy/generic_policy.h"
#include "src/policy/policy.h"

namespace osdp {
namespace {

Table PeopleTable() {
  Table t(Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}));
  OSDP_CHECK(t.AppendRow({Value(15), Value(1)}).ok());  // minor, opted in
  OSDP_CHECK(t.AppendRow({Value(40), Value(1)}).ok());  // adult, opted in
  OSDP_CHECK(t.AppendRow({Value(70), Value(0)}).ok());  // adult, opted out
  OSDP_CHECK(t.AppendRow({Value(10), Value(0)}).ok());  // minor, opted out
  return t;
}

Policy MinorsSensitive() {
  return Policy::SensitiveWhen(Predicate::Le("age", Value(17)), "P_minors");
}

Policy OptOutSensitive() {
  return Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "P_optout");
}

// ---------------------------------------------------------------- Policy ---

TEST(PolicyTest, ClassifiesRows) {
  Table t = PeopleTable();
  Policy p = MinorsSensitive();
  EXPECT_TRUE(p.IsSensitive(t, 0));
  EXPECT_FALSE(p.IsSensitive(t, 1));
  EXPECT_TRUE(p.IsNonSensitive(t, 2));
  EXPECT_TRUE(p.IsSensitive(t, 3));
}

TEST(PolicyTest, PaperEvalConvention) {
  // P(r) = 0 for sensitive, 1 for non-sensitive (Definition 3.1).
  Table t = PeopleTable();
  Policy p = MinorsSensitive();
  EXPECT_EQ(p.Eval(t.schema(), t.GetRow(0)), 0);
  EXPECT_EQ(p.Eval(t.schema(), t.GetRow(1)), 1);
}

TEST(PolicyTest, MaskAndFraction) {
  Table t = PeopleTable();
  Policy p = MinorsSensitive();
  std::vector<bool> mask = p.NonSensitiveMask(t);
  EXPECT_EQ(mask, (std::vector<bool>{false, true, true, false}));
  EXPECT_DOUBLE_EQ(p.NonSensitiveFraction(t), 0.5);
}

TEST(PolicyTest, PartitionRows) {
  Table t = PeopleTable();
  auto [sens, ns] = MinorsSensitive().PartitionRows(t);
  EXPECT_EQ(sens, (std::vector<size_t>{0, 3}));
  EXPECT_EQ(ns, (std::vector<size_t>{1, 2}));
}

TEST(PolicyTest, AllSensitiveAndAllNonSensitive) {
  Table t = PeopleTable();
  EXPECT_DOUBLE_EQ(Policy::AllSensitive().NonSensitiveFraction(t), 0.0);
  EXPECT_DOUBLE_EQ(Policy::AllNonSensitive().NonSensitiveFraction(t), 1.0);
  EXPECT_EQ(Policy::AllSensitive().name(), "P_all");
}

TEST(PolicyTest, MinimumRelaxationSensitiveIffBoth) {
  // Definition 3.6: P_mr(r) = max(P1(r), P2(r)) — non-sensitive if either
  // policy says so.
  Table t = PeopleTable();
  Policy mr = Policy::MinimumRelaxation(MinorsSensitive(), OptOutSensitive());
  // Row 0: minor but opted in → sensitive under P1 only → non-sensitive.
  EXPECT_FALSE(mr.IsSensitive(t, 0));
  // Row 3: minor AND opted out → sensitive under both → sensitive.
  EXPECT_TRUE(mr.IsSensitive(t, 3));
  EXPECT_FALSE(mr.IsSensitive(t, 1));
  EXPECT_FALSE(mr.IsSensitive(t, 2));
}

TEST(PolicyTest, MinimumRelaxationOfIdenticalPoliciesIsIdentity) {
  Table t = PeopleTable();
  Policy mr = Policy::MinimumRelaxation(MinorsSensitive(), MinorsSensitive());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(mr.IsSensitive(t, r), MinorsSensitive().IsSensitive(t, r));
  }
}

TEST(PolicyTest, MinimumRelaxationVector) {
  Table t = PeopleTable();
  Policy mr = Policy::MinimumRelaxation(
      {MinorsSensitive(), OptOutSensitive(), Policy::AllSensitive()});
  // AllSensitive contributes nothing extra: sensitive iff sensitive under all.
  EXPECT_TRUE(mr.IsSensitive(t, 3));
  EXPECT_FALSE(mr.IsSensitive(t, 0));
}

TEST(PolicyTest, RelaxationOrderOnTable) {
  Table t = PeopleTable();
  // Every policy is a relaxation of P_all (proof of Lemma 3.1).
  EXPECT_TRUE(MinorsSensitive().IsRelaxationOfOn(Policy::AllSensitive(), t));
  // P_all is not a relaxation of P_minors (it has more sensitive records).
  EXPECT_FALSE(Policy::AllSensitive().IsRelaxationOfOn(MinorsSensitive(), t));
  // The minimum relaxation is a relaxation of both inputs (Definition 3.6).
  Policy mr = Policy::MinimumRelaxation(MinorsSensitive(), OptOutSensitive());
  EXPECT_TRUE(mr.IsRelaxationOfOn(MinorsSensitive(), t));
  EXPECT_TRUE(mr.IsRelaxationOfOn(OptOutSensitive(), t));
}

// --------------------------------------------------------- GenericPolicy ---

TEST(GenericPolicyTest, WrapsArbitraryTypes) {
  auto policy = GenericPolicy<int>::SensitiveWhen(
      [](const int& v) { return v < 0; }, "negatives");
  EXPECT_TRUE(policy.IsSensitive(-3));
  EXPECT_TRUE(policy.IsNonSensitive(5));
  EXPECT_EQ(policy.Eval(-3), 0);
  EXPECT_EQ(policy.Eval(5), 1);
  EXPECT_DOUBLE_EQ(policy.NonSensitiveFraction({-1, 2, 3, -4}), 0.5);
}

TEST(GenericPolicyTest, MinimumRelaxation) {
  auto neg = GenericPolicy<int>::SensitiveWhen([](int v) { return v < 0; });
  auto odd = GenericPolicy<int>::SensitiveWhen([](int v) { return v % 2 != 0; });
  auto mr = GenericPolicy<int>::MinimumRelaxation(neg, odd);
  EXPECT_TRUE(mr.IsSensitive(-3));    // negative and odd
  EXPECT_FALSE(mr.IsSensitive(-2));   // negative only
  EXPECT_FALSE(mr.IsSensitive(3));    // odd only
  EXPECT_FALSE(mr.IsSensitive(4));
}

TEST(GenericPolicyTest, AllSensitiveAllNonSensitive) {
  auto all = GenericPolicy<int>::AllSensitive();
  auto none = GenericPolicy<int>::AllNonSensitive();
  EXPECT_TRUE(all.IsSensitive(7));
  EXPECT_TRUE(none.IsNonSensitive(7));
}

// ---------------------------------------------------------------- Budget ---

TEST(BudgetTest, SpendsAndRefuses) {
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.Spend(0.4, "a").ok());
  EXPECT_TRUE(budget.Spend(0.6, "b").ok());
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  EXPECT_EQ(budget.Spend(0.1, "c").code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(budget.charges().size(), 2u);
}

TEST(BudgetTest, RejectsNonPositiveCharges) {
  PrivacyBudget budget(1.0);
  EXPECT_EQ(budget.Spend(0.0, "zero").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(budget.Spend(-0.5, "neg").code(), StatusCode::kInvalidArgument);
}

TEST(BudgetTest, RejectsNonFiniteCharges) {
  // A NaN charge passes `<= 0` and would make spent_ NaN, after which every
  // later charge passes the budget check.
  PrivacyBudget budget(1.0);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(budget.Spend(bad, "bad").code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(budget.spent(), 0.0);
  EXPECT_TRUE(budget.charges().empty());
  EXPECT_EQ(budget.Spend(2.0, "over").code(), StatusCode::kBudgetExhausted);
}

TEST(BudgetTest, SpendFraction) {
  PrivacyBudget budget(2.0);
  double charged = 0.0;
  EXPECT_TRUE(budget.SpendFraction(0.25, "zero-detect", &charged).ok());
  EXPECT_DOUBLE_EQ(charged, 0.5);
  EXPECT_DOUBLE_EQ(budget.remaining(), 1.5);
  // Fraction of the *remaining* budget.
  EXPECT_TRUE(budget.SpendFraction(1.0, "rest", &charged).ok());
  EXPECT_DOUBLE_EQ(charged, 1.5);
}

TEST(BudgetTest, FloatAccumulationTolerated) {
  PrivacyBudget budget(1.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.Spend(0.1, "slice").ok());
  // 10 x 0.1 may exceed 1.0 by float error; the tolerance absorbs it.
  EXPECT_EQ(budget.charges().size(), 10u);
}

// ----------------------------------------------------- CompositionLedger ---

TEST(CompositionTest, SequentialSumsEpsilons) {
  // Theorem 3.3: Σε under the minimum relaxation.
  CompositionLedger ledger;
  ledger.Record(MinorsSensitive(), 0.5, "query1");
  ledger.Record(OptOutSensitive(), 0.7, "query2");
  ComposedGuarantee g = *ledger.Sequential();
  EXPECT_DOUBLE_EQ(g.epsilon, 1.2);
  Table t = PeopleTable();
  // The composed policy equals the pairwise minimum relaxation.
  Policy expected =
      Policy::MinimumRelaxation(MinorsSensitive(), OptOutSensitive());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(g.policy.IsSensitive(t, r), expected.IsSensitive(t, r));
  }
}

TEST(CompositionTest, ParallelTakesMax) {
  // Theorem 10.2: max ε over disjoint partitions.
  CompositionLedger ledger;
  ledger.Record(MinorsSensitive(), 0.5, "partition1");
  ledger.Record(MinorsSensitive(), 0.9, "partition2");
  ledger.Record(MinorsSensitive(), 0.2, "partition3");
  EXPECT_DOUBLE_EQ(ledger.Parallel()->epsilon, 0.9);
}

TEST(CompositionTest, EmptyLedgerErrors) {
  CompositionLedger ledger;
  EXPECT_FALSE(ledger.Sequential().ok());
  EXPECT_FALSE(ledger.Parallel().ok());
}

TEST(CompositionTest, SingleEntryIsIdentity) {
  CompositionLedger ledger;
  ledger.Record(MinorsSensitive(), 0.3);
  EXPECT_DOUBLE_EQ(ledger.Sequential()->epsilon, 0.3);
  EXPECT_DOUBLE_EQ(ledger.Parallel()->epsilon, 0.3);
}

}  // namespace
}  // namespace osdp
