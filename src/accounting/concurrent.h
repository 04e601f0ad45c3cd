// Privacy accounting for OSDP releases (Section 2; Theorems 3.2, 3.3, 10.2):
// the only budget and ledger types in the library, safe to share between
// the concurrent sessions of a front-end (src/runtime/query_service.h).
//
//   * SharedBudget: ε as a spendable resource, kept as (total, spent).
//     Sequential composition makes spent ε additive, so a charge past
//     ε_total is refused.
//   * BudgetReservation: the RAII two-budget (session + service) charge that
//     refunds on every exit path except an explicit Commit.
//   * SharedLedger: the one record per release — its ε, label and snapshot
//     generation — with each distinct policy stored once, and the composed
//     guarantee: sequential (ε's add) and parallel over a partition (ε's
//     max); policies combine by minimum relaxation.
//
// Each budget or ledger operation takes that object's one plain mutex at
// most once (the immutable total() takes none). Each object sits on its own
// cache lines (alignas(64)): a front-end touches its budgets and its ledger
// once per query from different threads, and a budget sharing a line with
// the ledger's mutex cost ~10% of hot_counts throughput (4-core host).
// Otherwise accounting is a few arithmetic ops per *release* under a plain
// lock, whose correctness is trivially auditable — which matters more than
// speed for the code that decides whether a release may happen at all.

#ifndef OSDP_ACCOUNTING_CONCURRENT_H_
#define OSDP_ACCOUNTING_CONCURRENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/policy/policy.h"

namespace osdp {

/// \brief A total ε budget and the ε spent against it; every operation is
/// individually atomic.
///
/// Spend is check-and-commit under the lock, so concurrent spenders can
/// never jointly overshoot ε_total — the invariant the concurrency tests
/// (and the TSan CI job) pin. For multi-budget invariants (per-session and
/// service-wide charged together), callers layer their own serialization on
/// top; see BudgetReservation and QueryService's charge path.
class alignas(64) SharedBudget {
 public:
  /// Creates a budget with the given total ε (> 0; aborts otherwise).
  explicit SharedBudget(double total_epsilon);

  /// ε charged so far.
  double spent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spent_;
  }
  /// ε still available.
  double remaining() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ - spent_;
  }

  /// Atomic check-and-charge of `epsilon` (must be positive and finite;
  /// InvalidArgument otherwise). BudgetExhausted, naming `label`, if the
  /// charge exceeds the remaining budget (beyond a tiny float tolerance); a
  /// refused charge leaves the budget unchanged.
  Status Spend(double epsilon, const std::string& label);

  /// \brief Atomic rollback of a prior Spend — the refund half of the
  /// two-phase commit concurrent front-ends use to reserve budget before a
  /// release and return it if the release fails downstream. Aborts if the
  /// refund exceeds what was spent.
  void Refund(double epsilon);

 private:
  mutable std::mutex mu_;
  const double total_;
  double spent_ = 0.0;
};

/// \brief RAII two-budget reservation: the exception-safe form of the
/// QueryService charge protocol (reserve both budgets up front, execute,
/// commit on success) with the refund guaranteed on *every* other exit path
/// — error return, injected fault, cancellation, deadline — instead of being
/// hand-rolled on the paths someone remembered. A reservation that is
/// destroyed without Commit() refunds both budgets; this is the invariant
/// the conservation soak (ε spent == Σ ε of delivered answers) leans on.
///
/// Move-only; moving transfers the refund obligation. The referenced budgets
/// must outlive the reservation (QueryService guarantees this by holding the
/// session alive through a shared_ptr for the life of each prepared query).
class BudgetReservation {
 public:
  /// An empty reservation: owns nothing, refunds nothing.
  BudgetReservation() = default;

  /// \brief Reserves `epsilon` from `session` then `service` atomically-in-
  /// effect: if the service refuses, the session charge is rolled back and
  /// the error returned with nothing held. The labels only name the charge
  /// in a BudgetExhausted message. Caller serializes concurrent Acquires
  /// (QueryService's reserve_mu_) so the pair commits in a deterministic
  /// order.
  static Result<BudgetReservation> Acquire(SharedBudget* session,
                                           const std::string& session_label,
                                           SharedBudget* service,
                                           const std::string& service_label,
                                           double epsilon) {
    OSDP_RETURN_IF_ERROR(session->Spend(epsilon, session_label));
    const Status service_status = service->Spend(epsilon, service_label);
    if (!service_status.ok()) {
      session->Refund(epsilon);
      return service_status;
    }
    BudgetReservation reservation;
    reservation.session_ = session;
    reservation.service_ = service;
    reservation.epsilon_ = epsilon;
    return reservation;
  }

  BudgetReservation(BudgetReservation&& other) noexcept {
    *this = std::move(other);
  }
  BudgetReservation& operator=(BudgetReservation&& other) noexcept {
    if (this != &other) {
      Rollback();
      session_ = other.session_;
      service_ = other.service_;
      epsilon_ = other.epsilon_;
      other.session_ = nullptr;
      other.service_ = nullptr;
    }
    return *this;
  }
  BudgetReservation(const BudgetReservation&) = delete;
  BudgetReservation& operator=(const BudgetReservation&) = delete;

  ~BudgetReservation() { Rollback(); }

  /// Makes the charge permanent: the destructor will no longer refund.
  /// Call exactly when the release is delivered to the caller.
  void Commit() {
    session_ = nullptr;
    service_ = nullptr;
  }

 private:
  void Rollback() {
    if (session_ == nullptr) return;
    session_->Refund(epsilon_);
    service_->Refund(epsilon_);
    session_ = nullptr;
    service_ = nullptr;
  }

  SharedBudget* session_ = nullptr;
  SharedBudget* service_ = nullptr;
  double epsilon_ = 0.0;
};

/// The derived privacy guarantee of a composed pipeline.
struct ComposedGuarantee {
  Policy policy;   ///< minimum relaxation of all component policies
  double epsilon;  ///< composed ε
};

/// \brief The one record of every release (ε, label, snapshot generation),
/// with each distinct policy stored once. Record and every query are
/// individually atomic, so concurrent sessions charge through one ledger.
///
/// Composition (Theorem 3.3) needs only the *set* of policies, so a service
/// making millions of releases under one policy stores one Policy and
/// composes in O(#policies). Two records share a stored policy when their
/// predicates share a root node and their names match.
class alignas(64) SharedLedger {
 public:
  /// Atomically appends one mechanism invocation with its OSDP guarantee.
  /// `generation` is the dataset snapshot generation the release was
  /// computed against (0 for a static dataset) — streaming front-ends record
  /// it so the audit trail names the exact sensitive/non-sensitive split each
  /// ε was charged under.
  void Record(const Policy& policy, double epsilon, std::string label = "",
              uint64_t generation = 0);

  /// Number of recorded invocations.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Sequential composition (Theorem 3.3): Σε, summed in record order, under
  /// the minimum relaxation of the recorded policies. FailedPrecondition if
  /// the ledger is empty.
  Result<ComposedGuarantee> Sequential() const;

  /// Parallel composition over disjoint partitions (Theorem 10.2, eOSDP):
  /// max ε under the minimum relaxation. The caller asserts disjointness —
  /// the ledger cannot verify it. FailedPrecondition if the ledger is empty.
  Result<ComposedGuarantee> Parallel() const;

  /// One recorded invocation.
  struct Entry {
    double epsilon;
    std::string label;
    /// Snapshot generation the release was charged against (0 = static).
    uint64_t generation = 0;
  };
  /// Snapshot of the recorded entries (copy).
  std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<Policy> policies_;  // distinct, in first-recorded order
  double sum_epsilon_ = 0.0;      // Σε of entries_, added in record order
  double max_epsilon_ = 0.0;      // max ε of entries_
};

}  // namespace osdp

#endif  // OSDP_ACCOUNTING_CONCURRENT_H_
