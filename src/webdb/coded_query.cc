#include "webdb/coded_query.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace aimq {

namespace {

/// Bytes of gather padding behind a Pred::match_table (the simd table_mask
/// kernel loads 32 bits per lane).
constexpr size_t kMatchTablePad = 8;

bool RangeMatches(CompareOp op, double a, double threshold) {
  switch (op) {
    case CompareOp::kLt:
      return a < threshold;
    case CompareOp::kLe:
      return a <= threshold;
    case CompareOp::kGt:
      return a > threshold;
    case CompareOp::kGe:
      return a >= threshold;
    default:
      return false;
  }
}

/// Branch-free selection-vector compaction: copies the rows of in[0, n) for
/// which keep(row) holds to out, in order, and returns how many. \p in may
/// alias \p out (the write index never passes the read index).
template <typename Keep>
size_t Compact(const uint32_t* in, size_t n, uint32_t* out, Keep keep) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = in[i];
    out[kept] = row;
    kept += keep(row) ? 1 : 0;
  }
  return kept;
}

/// Keeps the rows whose non-null value in \p attr satisfies \p cmp. Reads
/// the row's raw double (nums() when plain, NumAt() when packed) — the same
/// Value::AsNum() the dictionary entry holds, up to -0.0 vs 0.0, which every
/// comparison treats as equal. Requires an all-numeric dictionary.
template <typename Cmp>
size_t CompactRange(const ColumnarRelation& data, size_t attr, Cmp cmp,
                    const uint32_t* in, size_t n, uint32_t* out) {
  constexpr ValueId kNull = ValueDict::kNullCode;
  if (data.schema().attribute(attr).type != AttrType::kNumeric) {
    // Numbers in a categorical column (unvalidated appends) have no raw
    // double column: compare the dictionary entry.
    const ValueDict& dict = data.dict(attr);
    return Compact(in, n, out, [&](uint32_t row) {
      const ValueId code = data.CodeAt(attr, row);
      return code != kNull && cmp(dict.value(code).AsNum());
    });
  }
  if (data.packed()) {
    return Compact(in, n, out, [&](uint32_t row) {
      return data.CodeAt(attr, row) != kNull && cmp(data.NumAt(attr, row));
    });
  }
  const ValueId* codes = data.codes(attr).data();
  const double* nums = data.nums(attr).data();
  return Compact(in, n, out, [=](uint32_t row) {
    return (static_cast<unsigned>(codes[row] != kNull) &
            static_cast<unsigned>(cmp(nums[row]))) != 0;
  });
}

}  // namespace

CodedConjunction CodedConjunction::Compile(const SelectionQuery& query,
                                           const ColumnarRelation& data) {
  CodedConjunction out;
  out.data_ = &data;
  out.preds_.reserve(query.NumPredicates());
  for (const Predicate& p : query.predicates()) {
    Pred c;
    c.op = p.op;
    auto index = data.schema().IndexOf(p.attribute);
    if (!index.ok()) {
      c.kind = Kind::kCompileError;
      c.error = index.status();
      out.can_fail_ = true;
      out.preds_.push_back(std::move(c));
      continue;
    }
    c.attr = index.ValueOrDie();
    if (p.value.is_null()) {
      // Null query value: Predicate::Matches returns false before looking at
      // the operator, even for kLike.
      c.kind = Kind::kNeverMatch;
    } else if (p.op == CompareOp::kEq) {
      c.kind = Kind::kEqCode;
      // Lookup resolves through Value equality, so NaN yields the absent
      // sentinel (matches nothing) and -0.0 finds 0.0's code.
      c.target = data.dict(c.attr).Lookup(p.value);
    } else if (p.op == CompareOp::kLike) {
      c.kind = Kind::kErrorUnlessNull;
      c.error = Status::InvalidArgument(
          "'like' predicate is not executable under the boolean query model; "
          "map the imprecise query to a precise base query first");
    } else if (!p.value.is_numeric()) {
      c.kind = Kind::kErrorUnlessNull;
      c.error = Status::InvalidArgument(
          "range predicate on non-numeric attribute '" + p.attribute + "'");
    } else {
      c.kind = Kind::kRange;
      c.threshold = p.value.AsNum();
      if (!data.dict(c.attr).all_numeric()) {
        // Only reachable through unvalidated appends; the error matches the
        // row-store message for a non-numeric stored operand.
        c.error = Status::InvalidArgument(
            "range predicate on non-numeric attribute '" + p.attribute + "'");
      }
    }
    out.can_fail_ = out.can_fail_ || c.CanFail();
    if (c.kind == Kind::kEqCode) {
      out.eq_order_.push_back(static_cast<uint32_t>(out.preds_.size()));
    }
    out.preds_.push_back(std::move(c));
  }
  return out;
}

template <typename CodeFn>
Result<bool> CodedConjunction::EvalRowWith(CodeFn&& code_at) const {
  for (size_t i = 0; i < preds_.size(); ++i) {
    const Pred& p = preds_[i];
    switch (p.kind) {
      case Kind::kCompileError:
        return p.error;
      case Kind::kNeverMatch:
        return false;
      case Kind::kEqCode: {
        if (code_at(i, p) != p.target) return false;
        break;
      }
      case Kind::kErrorUnlessNull: {
        if (code_at(i, p) == ValueDict::kNullCode) return false;
        return p.error;
      }
      case Kind::kRange: {
        const ValueId code = code_at(i, p);
        if (code == ValueDict::kNullCode) return false;
        const Value& v = data_->dict(p.attr).value(code);
        if (!v.is_numeric()) return p.error;
        if (!RangeMatches(p.op, v.AsNum(), p.threshold)) return false;
        break;
      }
    }
  }
  return true;
}

Result<bool> CodedConjunction::EvaluateRow(uint32_t row) const {
  return EvalRowWith(
      [this, row](size_t, const Pred& p) { return data_->CodeAt(p.attr, row); });
}

Result<std::vector<uint32_t>> CodedConjunction::EvaluateAll() const {
  std::vector<uint32_t> rows;

  // One scan attribute per predicate that reads its column; predicates that
  // short-circuit without a column read (never-match, compile error) keep a
  // null window pointer.
  std::vector<size_t> scan_attrs;
  std::vector<size_t> pred_slot(preds_.size(), SIZE_MAX);
  for (size_t i = 0; i < preds_.size(); ++i) {
    const Kind k = preds_[i].kind;
    if (k == Kind::kEqCode || k == Kind::kErrorUnlessNull ||
        k == Kind::kRange) {
      pred_slot[i] = scan_attrs.size();
      scan_attrs.push_back(preds_[i].attr);
    }
  }
  if (scan_attrs.empty()) {
    // No predicate reads a column: evaluate once per row without a scan
    // (preserves "an empty relation scans clean" for compile errors).
    const uint32_t n = static_cast<uint32_t>(data_->NumRows());
    for (uint32_t r = 0; r < n; ++r) {
      AIMQ_ASSIGN_OR_RETURN(bool match, EvaluateRow(r));
      if (match) rows.push_back(r);
    }
    return rows;
  }

  // Batched bitmask path: applicable when every predicate compiled to an
  // error-free code form — kEqCode (a pure code compare) or kRange with a
  // match table (all-numeric dictionary). Those kinds can never return a
  // Status for any row, so mask evaluation order is unobservable and the
  // per-predicate masks can be built independently and ANDed. Any other
  // kind (kNeverMatch, kCompileError, kErrorUnlessNull, error-carrying
  // kRange) falls back to the per-row path below, which reproduces the
  // row-store error-ordering semantics exactly.
  const bool vectorizable = std::all_of(
      preds_.begin(), preds_.end(), [](const Pred& p) {
        return p.kind == Kind::kEqCode ||
               (p.kind == Kind::kRange && !p.CanFail());
      });
  if (vectorizable) {
    // Per-code range match tables, built only here: match_tables[pi][c] != 0
    // iff dictionary code c satisfies preds_[pi]. They fold the same
    // dictionary doubles the per-row path compares, so the two paths agree
    // bit-for-bit. Padded beyond dict size for the simd gather kernel.
    std::vector<std::vector<uint8_t>> match_tables(preds_.size());
    for (size_t pi = 0; pi < preds_.size(); ++pi) {
      const Pred& p = preds_[pi];
      if (p.kind != Kind::kRange) continue;
      const ValueDict& dict = data_->dict(p.attr);
      match_tables[pi].assign(dict.size() + kMatchTablePad, 0);
      for (ValueId code = 0; code < dict.size(); ++code) {
        match_tables[pi][code] =
            RangeMatches(p.op, dict.value(code).AsNum(), p.threshold) ? 1 : 0;
      }
    }
    const simd::KernelTable& kernels = simd::Kernels();
    std::vector<uint64_t> mask, pred_mask;
    ColumnarRelation::WindowCursor cur = data_->ScanBlocks(scan_attrs);
    ColumnarRelation::CodeWindow w;
    while (cur.Next(&w)) {
      const size_t words = (w.num_rows + 63) / 64;
      mask.resize(words);
      pred_mask.resize(words);
      for (size_t pi = 0; pi < preds_.size(); ++pi) {
        const Pred& p = preds_[pi];
        const uint32_t* codes = w.codes[pred_slot[pi]];
        uint64_t* dst = pi == 0 ? mask.data() : pred_mask.data();
        if (p.kind == Kind::kEqCode) {
          kernels.eq_mask(codes, w.num_rows, p.target, dst);
        } else {
          const std::vector<uint8_t>& table = match_tables[pi];
          kernels.table_mask(
              codes, w.num_rows, table.data(),
              static_cast<uint32_t>(table.size() - kMatchTablePad), dst);
        }
        if (pi != 0) {
          for (size_t wi = 0; wi < words; ++wi) mask[wi] &= pred_mask[wi];
        }
      }
      kernels.mask_to_rows(mask.data(), words,
                           static_cast<uint32_t>(w.begin_row), &rows);
    }
    return rows;
  }

  ColumnarRelation::WindowCursor cur = data_->ScanBlocks(scan_attrs);
  ColumnarRelation::CodeWindow w;
  while (cur.Next(&w)) {
    for (size_t i = 0; i < w.num_rows; ++i) {
      AIMQ_ASSIGN_OR_RETURN(
          bool match,
          EvalRowWith([&w, &pred_slot, i](size_t pi, const Pred&) {
            return w.codes[pred_slot[pi]][i];
          }));
      if (match) rows.push_back(static_cast<uint32_t>(w.begin_row + i));
    }
  }
  return rows;
}

Result<std::vector<uint32_t>> CodedConjunction::EvaluateCandidates(
    std::span<const uint32_t> candidates, PredicateSet satisfied) const {
  std::vector<uint32_t> rows;
  if (!can_fail_) {
    FilterCandidates(candidates, satisfied, &rows);
    return rows;
  }
  for (uint32_t r : candidates) {
    AIMQ_ASSIGN_OR_RETURN(bool match, EvaluateRow(r));
    if (match) rows.push_back(r);
  }
  return rows;
}

void CodedConjunction::FilterCandidates(std::span<const uint32_t> candidates,
                                        PredicateSet satisfied,
                                        std::vector<uint32_t>* out) const {
  // No predicate can fail, so the order predicates are applied in is
  // unobservable: a row survives iff it satisfies all of them.
  for (const Pred& p : preds_) {
    if (p.kind == Kind::kNeverMatch) return;
  }
  const size_t base = out->size();
  out->resize(base + candidates.size());
  uint32_t* sel = out->data() + base;
  const uint32_t* in = candidates.data();  // the first pass reads candidates
  size_t n = candidates.size();
  // Equalities first: one code compare per row, and they usually cut the
  // selection hardest — the shortest posting list first.
  for (const uint32_t i : eq_order_) {
    if (satisfied.Contains(i)) continue;
    const Pred& p = preds_[i];
    const ValueId target = p.target;
    if (data_->packed()) {
      n = Compact(in, n, sel, [this, &p, target](uint32_t row) {
        return data_->CodeAt(p.attr, row) == target;
      });
    } else {
      const ValueId* codes = data_->codes(p.attr).data();
      n = Compact(in, n, sel, [codes, target](uint32_t row) {
        return codes[row] == target;
      });
    }
    in = sel;
  }
  for (size_t i = 0; i < preds_.size(); ++i) {
    const Pred& p = preds_[i];
    if (p.kind != Kind::kRange || satisfied.Contains(i)) continue;
    const double t = p.threshold;
    switch (p.op) {
      case CompareOp::kLt:
        n = CompactRange(*data_, p.attr, [t](double a) { return a < t; }, in,
                         n, sel);
        break;
      case CompareOp::kLe:
        n = CompactRange(*data_, p.attr, [t](double a) { return a <= t; }, in,
                         n, sel);
        break;
      case CompareOp::kGt:
        n = CompactRange(*data_, p.attr, [t](double a) { return a > t; }, in,
                         n, sel);
        break;
      case CompareOp::kGe:
        n = CompactRange(*data_, p.attr, [t](double a) { return a >= t; }, in,
                         n, sel);
        break;
      default:  // kRange is never compiled from kEq or kLike
        n = 0;
        break;
    }
    in = sel;
  }
  if (in != sel) {
    // Every predicate was satisfied up front: every candidate holds.
    std::copy(candidates.begin(), candidates.end(), sel);
  }
  out->resize(base + n);
}

}  // namespace aimq
