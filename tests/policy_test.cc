// Tests for src/policy and src/accounting: policy algebra (Definitions 3.1,
// 3.5-3.7), composition (Theorems 3.2/3.3/10.2), budgets and the two-budget
// reservation.

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"

#include "src/accounting/concurrent.h"
#include "src/policy/generic_policy.h"
#include "src/policy/policy.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

Table PeopleTable() {
  return TableFromRows(
      Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}),
      {{Value(15), Value(1)},    // minor, opted in
       {Value(40), Value(1)},    // adult, opted in
       {Value(70), Value(0)},    // adult, opted out
       {Value(10), Value(0)}});  // minor, opted out
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
  const RowMask sensitive = p.SensitiveMask(t);
  EXPECT_TRUE(sensitive.Test(0));
  EXPECT_FALSE(sensitive.Test(1));
  EXPECT_TRUE(p.NonSensitiveRowMask(t).Test(2));
  EXPECT_TRUE(sensitive.Test(3));
}

TEST(PolicyTest, PaperEvalConvention) {
  // P(r) = 0 for sensitive, 1 for non-sensitive (Definition 3.1): the
  // non-sensitive mask is P evaluated on every row.
  Table t = PeopleTable();
  const RowMask p_of_r = MinorsSensitive().NonSensitiveRowMask(t);
  EXPECT_EQ(p_of_r.Test(0), 0);
  EXPECT_EQ(p_of_r.Test(1), 1);
}

TEST(PolicyTest, MaskAndFraction) {
  Table t = PeopleTable();
  Policy p = MinorsSensitive();
  const RowMask mask = p.NonSensitiveRowMask(t);
  EXPECT_EQ(mask.ToBools(), (std::vector<bool>{false, true, true, false}));
  EXPECT_DOUBLE_EQ(p.NonSensitiveFraction(t), 0.5);
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
  EXPECT_FALSE(mr.SensitiveMask(t).Test(0));
  // Row 3: minor AND opted out → sensitive under both → sensitive.
  EXPECT_TRUE(mr.SensitiveMask(t).Test(3));
  EXPECT_FALSE(mr.SensitiveMask(t).Test(1));
  EXPECT_FALSE(mr.SensitiveMask(t).Test(2));
}

TEST(PolicyTest, MinimumRelaxationOfIdenticalPoliciesIsIdentity) {
  Table t = PeopleTable();
  Policy mr = Policy::MinimumRelaxation(MinorsSensitive(), MinorsSensitive());
  EXPECT_EQ(mr.SensitiveMask(t), MinorsSensitive().SensitiveMask(t));
}

TEST(PolicyTest, MinimumRelaxationVector) {
  Table t = PeopleTable();
  Policy mr = Policy::MinimumRelaxation(
      {MinorsSensitive(), OptOutSensitive(), Policy::AllSensitive()});
  // AllSensitive contributes nothing extra: sensitive iff sensitive under all.
  EXPECT_TRUE(mr.SensitiveMask(t).Test(3));
  EXPECT_FALSE(mr.SensitiveMask(t).Test(0));
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
      [](const int& v) { return v < 0; });
  EXPECT_FALSE(policy.IsNonSensitive(-3));
  EXPECT_TRUE(policy.IsNonSensitive(5));
}

// ---------------------------------------------------------------- Budget ---

TEST(BudgetTest, SpendsAndRefuses) {
  SharedBudget budget(1.0);
  EXPECT_TRUE(budget.Spend(0.4, "a").ok());
  EXPECT_TRUE(budget.Spend(0.6, "b").ok());
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  const Status refused = budget.Spend(0.1, "c");
  EXPECT_EQ(refused.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(refused.message().find("'c'"), std::string::npos)
      << refused.message();
  // The refused charge left the budget exactly as it was.
  EXPECT_EQ(budget.spent(), 0.4 + 0.6);
}

TEST(BudgetTest, RejectsNonPositiveCharges) {
  SharedBudget budget(1.0);
  EXPECT_EQ(budget.Spend(0.0, "zero").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(budget.Spend(-0.5, "neg").code(), StatusCode::kInvalidArgument);
}

TEST(BudgetTest, RejectsNonFiniteCharges) {
  // A NaN charge passes `<= 0` and would make spent_ NaN, after which every
  // later charge passes the budget check.
  SharedBudget budget(1.0);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(budget.Spend(bad, "bad").code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(budget.spent(), 0.0);
  EXPECT_EQ(budget.remaining(), 1.0);
  EXPECT_EQ(budget.Spend(2.0, "over").code(), StatusCode::kBudgetExhausted);
}

TEST(BudgetTest, FloatAccumulationTolerated) {
  SharedBudget budget(1.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.Spend(0.1, "slice").ok());
  // 10 x 0.1 may exceed 1.0 by float error; the tolerance absorbs it.
  EXPECT_NEAR(budget.spent(), 1.0, 1e-9);
}

TEST(BudgetTest, RefundReturnsTheCharge) {
  SharedBudget budget(1.0);
  ASSERT_TRUE(budget.Spend(0.4, "q").ok());
  budget.Refund(0.4);
  EXPECT_EQ(budget.spent(), 0.0);
  EXPECT_EQ(budget.remaining(), 1.0);
  // The refunded ε is spendable again.
  EXPECT_TRUE(budget.Spend(1.0, "all").ok());
}

TEST(BudgetDeathTest, RefundBeyondSpentAborts) {
  SharedBudget budget(1.0);
  ASSERT_TRUE(budget.Spend(0.2, "q").ok());
  EXPECT_DEATH(budget.Refund(0.5), "exceeds spent");
  // A double refund is a refund beyond what was spent.
  budget.Refund(0.2);
  EXPECT_DEATH(budget.Refund(0.2), "exceeds spent");
}

TEST(BudgetTest, ConcurrentSpendersNeverOvershootTotal) {
  // Many threads race small charges against one budget while an observer
  // reads it: the check-and-charge is atomic, so the budget fills exactly
  // and is never seen past total().
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 50;
  constexpr double kCharge = 0.01;
  constexpr double kTotal = 1.0;
  SharedBudget budget(kTotal);
  std::atomic<int> granted{0};
  std::atomic<bool> done{false};
  std::atomic<bool> overshoot_seen{false};
  std::thread observer([&] {
    while (!done.load()) {
      if (budget.spent() > kTotal + 1e-9) overshoot_seen = true;
    }
  });
  std::vector<std::thread> spenders;
  for (int t = 0; t < kThreads; ++t) {
    spenders.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (budget.Spend(kCharge, "slice").ok()) ++granted;
      }
    });
  }
  for (std::thread& t : spenders) t.join();
  done = true;
  observer.join();

  EXPECT_FALSE(overshoot_seen.load());
  // 400 attempts at 0.01 against 1.0: exactly 100 fit.
  EXPECT_EQ(granted.load(), 100);
  EXPECT_LE(budget.spent(), kTotal + 1e-9);
  EXPECT_NEAR(budget.spent(), granted.load() * kCharge, 1e-9);
  EXPECT_NEAR(budget.remaining(), kTotal - granted.load() * kCharge,
              1e-9);
}

// ---------------------------------------------------- BudgetReservation ---

TEST(BudgetReservationTest, DestroyedWithoutCommitRefundsBothBudgets) {
  SharedBudget session(1.0);
  SharedBudget service(2.0);
  {
    Result<BudgetReservation> r =
        BudgetReservation::Acquire(&session, "s", &service, "v", 0.4);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(session.spent(), 0.4);
    EXPECT_DOUBLE_EQ(service.spent(), 0.4);
  }
  EXPECT_EQ(session.spent(), 0.0);
  EXPECT_EQ(service.spent(), 0.0);
  EXPECT_EQ(session.remaining(), 1.0);
  EXPECT_EQ(service.remaining(), 2.0);
}

TEST(BudgetReservationTest, CommitMakesTheChargePermanent) {
  SharedBudget session(1.0);
  SharedBudget service(2.0);
  {
    Result<BudgetReservation> r =
        BudgetReservation::Acquire(&session, "s", &service, "v", 0.4);
    ASSERT_TRUE(r.ok());
    r->Commit();
  }
  EXPECT_DOUBLE_EQ(session.spent(), 0.4);
  EXPECT_DOUBLE_EQ(service.spent(), 0.4);
  EXPECT_DOUBLE_EQ(session.remaining(), 0.6);
  EXPECT_DOUBLE_EQ(service.remaining(), 1.6);
}

TEST(BudgetReservationTest, MoveTransfersTheRefundExactlyOnce) {
  SharedBudget session(1.0);
  SharedBudget service(1.0);
  {
    BudgetReservation first =
        *BudgetReservation::Acquire(&session, "s", &service, "v", 0.3);
    {
      BudgetReservation second = std::move(first);
      EXPECT_DOUBLE_EQ(session.spent(), 0.3);
    }  // second refunds here
    EXPECT_EQ(session.spent(), 0.0);
    EXPECT_EQ(service.spent(), 0.0);
  }  // first (moved-from) refunds nothing
  EXPECT_EQ(session.remaining(), 1.0);
  EXPECT_EQ(service.remaining(), 1.0);

  // Move-assigning onto a held reservation first refunds what it held.
  {
    BudgetReservation a =
        *BudgetReservation::Acquire(&session, "a", &service, "a", 0.2);
    BudgetReservation b =
        *BudgetReservation::Acquire(&session, "b", &service, "b", 0.3);
    b = std::move(a);
    EXPECT_DOUBLE_EQ(session.spent(), 0.2);
  }
  EXPECT_NEAR(session.spent(), 0.0, 1e-12);
  EXPECT_NEAR(service.spent(), 0.0, 1e-12);
  // Two charges and two refunds, one each: nothing refunded twice (a second
  // refund of either would have aborted in Refund's spent check).
  EXPECT_NEAR(session.remaining(), 1.0, 1e-12);
  EXPECT_NEAR(service.remaining(), 1.0, 1e-12);
}

TEST(BudgetReservationTest, AcquireRollsBackSessionWhenServiceRefuses) {
  SharedBudget session(1.0);
  SharedBudget service(0.25);
  Result<BudgetReservation> r =
      BudgetReservation::Acquire(&session, "s", &service, "v", 0.3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(session.spent(), 0.0);
  EXPECT_EQ(session.remaining(), 1.0);
  EXPECT_EQ(service.spent(), 0.0);
}

TEST(BudgetReservationTest, AcquireChargesNothingWhenSessionRefuses) {
  SharedBudget session(0.25);
  SharedBudget service(1.0);
  EXPECT_EQ(BudgetReservation::Acquire(&session, "s", &service, "v", 0.3)
                .status()
                .code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ(session.spent(), 0.0);
  EXPECT_EQ(service.spent(), 0.0);
}

// ---------------------------------------------------------- SharedLedger ---

TEST(CompositionTest, SequentialSumsEpsilons) {
  // Theorem 3.3: Σε under the minimum relaxation.
  SharedLedger ledger;
  ledger.Record(MinorsSensitive(), 0.5, "query1");
  ledger.Record(OptOutSensitive(), 0.7, "query2");
  ComposedGuarantee g = *ledger.Sequential();
  EXPECT_DOUBLE_EQ(g.epsilon, 1.2);
  Table t = PeopleTable();
  // The composed policy equals the pairwise minimum relaxation.
  Policy expected =
      Policy::MinimumRelaxation(MinorsSensitive(), OptOutSensitive());
  EXPECT_EQ(g.policy.SensitiveMask(t), expected.SensitiveMask(t));
}

TEST(CompositionTest, ParallelTakesMax) {
  // Theorem 10.2: max ε over disjoint partitions.
  SharedLedger ledger;
  ledger.Record(MinorsSensitive(), 0.5, "partition1");
  ledger.Record(MinorsSensitive(), 0.9, "partition2");
  ledger.Record(MinorsSensitive(), 0.2, "partition3");
  EXPECT_DOUBLE_EQ(ledger.Parallel()->epsilon, 0.9);
}

TEST(CompositionTest, EmptyLedgerErrors) {
  SharedLedger ledger;
  EXPECT_EQ(ledger.Sequential().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ledger.Parallel().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompositionTest, SingleEntryIsIdentity) {
  SharedLedger ledger;
  ledger.Record(MinorsSensitive(), 0.3);
  EXPECT_DOUBLE_EQ(ledger.Sequential()->epsilon, 0.3);
  EXPECT_DOUBLE_EQ(ledger.Parallel()->epsilon, 0.3);
}

TEST(CompositionTest, LedgerKeepsEachPolicyOnce) {
  // Theorem 3.3 composes the *set* of policies: repeating a policy adds its
  // ε but not another relaxation step, while every release keeps its entry.
  const Policy minors = MinorsSensitive();
  const Policy optout = OptOutSensitive();
  SharedLedger ledger;
  ledger.Record(minors, 0.1, "a", 0);
  ledger.Record(optout, 0.2, "b", 1);
  ledger.Record(minors, 0.3, "c", 2);
  ledger.Record(optout, 0.4, "d", 3);
  ASSERT_EQ(ledger.size(), 4u);
  const std::vector<SharedLedger::Entry> entries = ledger.entries();
  EXPECT_EQ(entries[2].epsilon, 0.3);
  EXPECT_EQ(entries[2].label, "c");
  EXPECT_EQ(entries[3].generation, 3u);

  const ComposedGuarantee g = *ledger.Sequential();
  EXPECT_EQ(g.epsilon, ((0.1 + 0.2) + 0.3) + 0.4);
  EXPECT_EQ(g.policy.name(), "mr(P_minors, P_optout)");
  const Policy expected = Policy::MinimumRelaxation(minors, optout);
  Table t = PeopleTable();
  EXPECT_EQ(g.policy.SensitiveMask(t), expected.SensitiveMask(t));
  EXPECT_EQ(ledger.Parallel()->epsilon, 0.4);
}

TEST(CompositionTest, MillionsOfEntriesOfOnePolicyCompose) {
  // A long-running service records one entry per release under one policy.
  // Composing them must neither build a predicate per entry (a deep And
  // chain whose destruction overflows the stack) nor perturb ε: the
  // composed policy is the recorded one, and ε is the in-order left fold.
  constexpr size_t kEntries = 2000000;
  const Policy policy = MinorsSensitive();
  SharedLedger ledger;
  double sum = 0.0;
  double max = 0.0;
  for (size_t i = 0; i < kEntries; ++i) {
    const double eps = 1e-3 * static_cast<double>(1 + i % 7);
    ledger.Record(policy, eps);
    sum = i == 0 ? eps : sum + eps;
    max = i == 0 ? eps : std::max(max, eps);
  }
  ASSERT_EQ(ledger.size(), kEntries);
  {
    const ComposedGuarantee seq = *ledger.Sequential();
    EXPECT_EQ(seq.policy.sensitive_predicate().root(),
              policy.sensitive_predicate().root());
    EXPECT_EQ(seq.policy.name(), policy.name());
    EXPECT_EQ(seq.epsilon, sum);
  }
  {
    const ComposedGuarantee par = *ledger.Parallel();
    EXPECT_EQ(par.policy.sensitive_predicate().root(),
              policy.sensitive_predicate().root());
    EXPECT_EQ(par.epsilon, max);
  }
}

}  // namespace
}  // namespace osdp
