// CodedConjunction: a conjunctive SelectionQuery compiled against one
// ColumnarRelation's dictionaries, so per-row evaluation is pure integer and
// double comparisons — no string hashing, no Value variant dispatch.
//
// The compiled form replicates Predicate::Matches / SelectionQuery::Matches
// semantics bit-for-bit, including the quirky corners:
//   - a null query value makes the predicate false (never an error), even
//     for kLike;
//   - equality never errors: a type-mismatched or never-seen value simply
//     matches nothing (each query value is resolved through the dictionary
//     once, so NaN matches nothing and -0.0 matches 0.0, exactly as the
//     row-store Value comparison behaves);
//   - a range (or kLike) predicate errors only for rows whose stored value
//     is non-null — null rows short-circuit to false first — and an earlier
//     false predicate in query order suppresses a later predicate's error;
//   - an unknown attribute reproduces Schema::IndexOf's error status, but
//     only when a row is actually evaluated (an empty relation scans clean).

#ifndef AIMQ_WEBDB_CODED_QUERY_H_
#define AIMQ_WEBDB_CODED_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "query/selection_query.h"
#include "relation/columnar.h"
#include "util/status.h"

namespace aimq {

/// \brief A SelectionQuery pre-resolved to integer codes for one relation.
///
/// Holds a pointer to the ColumnarRelation it was compiled against; the
/// caller keeps that snapshot alive for the conjunction's lifetime.
class CodedConjunction {
 public:
  /// Compiles \p query against \p data. Total: malformed predicates compile
  /// to forms that reproduce their row-store evaluation errors lazily.
  static CodedConjunction Compile(const SelectionQuery& query,
                                  const ColumnarRelation& data);

  /// Conjunctive evaluation of one row; mirrors SelectionQuery::Matches.
  Result<bool> EvaluateRow(uint32_t row) const;

  /// Full scan; mirrors SelectionQuery::Evaluate (row indices ascending).
  /// Iterates block windows via ColumnarRelation::ScanBlocks, so packed
  /// snapshots decode (and page in) one block per involved column at a time.
  /// When every predicate compiled to an error-free code form (kEqCode, or
  /// kRange over an all-numeric dictionary), the scan runs as a batched
  /// bitmask filter through the simd kernel layer: one bitmask per
  /// predicate per window, ANDed across predicates, row ids emitted from
  /// the surviving mask. A range predicate's per-code match table is built
  /// here, once per scan, from the same dictionary doubles the per-row path
  /// compares. Results are bit-identical to the per-row path.
  Result<std::vector<uint32_t>> EvaluateAll() const;

  /// A set of predicate indices: the predicates every candidate is known
  /// to satisfy, because the candidates are the posting list of one
  /// equality or the code-pair list of two. Indices past 63 are never
  /// members; such predicates are simply checked again.
  class PredicateSet {
   public:
    PredicateSet() = default;
    static PredicateSet Of(size_t i) {
      PredicateSet set;
      set.Add(i);
      return set;
    }
    void Add(size_t i) {
      if (i < 64) bits_ |= uint64_t{1} << i;
    }
    bool Contains(size_t i) const { return i < 64 && ((bits_ >> i) & 1) != 0; }

   private:
    uint64_t bits_ = 0;
  };

  /// Evaluates only \p candidates (ascending row ids), keeping matches.
  /// \p satisfied names predicates every candidate is known to satisfy.
  /// When no predicate can fail (see CanFail) the conjunction is applied
  /// one column at a time by FilterCandidates. Otherwise the per-row path
  /// runs over every candidate, so error ordering and Status text match
  /// EvaluateRow exactly.
  Result<std::vector<uint32_t>> EvaluateCandidates(
      std::span<const uint32_t> candidates, PredicateSet satisfied) const;

  /// Column-at-a-time filter: appends the rows of \p candidates (ascending)
  /// that satisfy the conjunction to *out, in order. Each predicate not in
  /// \p satisfied compacts a selection vector without branches: equalities
  /// first, in OrderEqualities order, then ranges. Requires !CanFail(), so
  /// the order predicates are applied in is unobservable. \p candidates may
  /// be one of several ascending runs of one probe (the source's posting
  /// lists are split into row-range segments); appending keeps the answer
  /// ascending.
  void FilterCandidates(std::span<const uint32_t> candidates,
                        PredicateSet satisfied,
                        std::vector<uint32_t>* out) const;

  /// True when some row could make the conjunction return an error Status
  /// (kErrorUnlessNull, kCompileError, or kRange over a dictionary holding a
  /// non-numeric value). Such conjunctions are evaluated row by row.
  bool CanFail() const { return can_fail_; }

  /// Orders the equalities FilterCandidates applies by ascending
  /// \p rank(i) for predicate i (stable: query order on ties). The source
  /// ranks by posting-list length, so the most selective equality cuts the
  /// selection first. Compile leaves them in query order.
  template <typename RankFn>
  void OrderEqualities(RankFn rank) {
    std::stable_sort(eq_order_.begin(), eq_order_.end(),
                     [&rank](uint32_t a, uint32_t b) {
                       return rank(a) < rank(b);
                     });
  }

  size_t NumPredicates() const { return preds_.size(); }

  /// True when predicate \p i is an equality with a non-null constant
  /// (kEqCode); then *attr is its column and *code the constant's dictionary
  /// code (kAbsentCode when never stored) — the posting list whose rows all
  /// satisfy it.
  bool EqualityCode(size_t i, size_t* attr, ValueId* code) const {
    if (preds_[i].kind != Kind::kEqCode) return false;
    *attr = preds_[i].attr;
    *code = preds_[i].target;
    return true;
  }

 private:
  enum class Kind : uint8_t {
    kNeverMatch,       // null query value: always false, never errors
    kEqCode,           // code == target (target may be the absent sentinel)
    kRange,            // numeric comparison of the row's value
    kErrorUnlessNull,  // false on null rows, a fixed error otherwise
    kCompileError,     // unknown attribute: errors on any row
  };

  struct Pred {
    Kind kind = Kind::kNeverMatch;
    CompareOp op = CompareOp::kEq;
    size_t attr = 0;
    ValueId target = 0;        // kEqCode
    double threshold = 0.0;    // kRange
    // kErrorUnlessNull / kCompileError payload; for kRange, set only when the
    // dictionary holds a non-numeric value (reachable through unvalidated
    // appends), which rows holding that value report.
    Status error = Status::OK();

    bool CanFail() const {
      return kind == Kind::kErrorUnlessNull || kind == Kind::kCompileError ||
             (kind == Kind::kRange && !error.ok());
    }
  };

  // Shared conjunctive evaluation of one row. \p code_at(i, pred) supplies
  // the row's code for preds_[i]'s attribute; the row path reads it through
  // CodeAt, the window path through block-local pointers. Defined in the
  // .cc (both instantiations live there).
  template <typename CodeFn>
  Result<bool> EvalRowWith(CodeFn&& code_at) const;

  const ColumnarRelation* data_ = nullptr;
  std::vector<Pred> preds_;
  // Indices of the kEqCode predicates, in the order FilterCandidates
  // applies them.
  std::vector<uint32_t> eq_order_;
  bool can_fail_ = false;  // some predicate's CanFail()
};

}  // namespace aimq

#endif  // AIMQ_WEBDB_CODED_QUERY_H_
