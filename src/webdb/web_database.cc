#include "webdb/web_database.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <tuple>

#include "webdb/coded_query.h"

namespace aimq {
namespace {

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

}  // namespace

// Code-pair posting lists of rows [begin_row, end_row): for each attribute
// pair (a, b) in slot order, the rows holding both codes non-null grouped by
// cell code_a * card_b + code_b, ascending within a cell. Cardinalities are
// the dictionaries' sizes when the segment was built; codes interned later
// have no rows here.
struct WebDatabase::PairSegment {
  struct Pair {
    uint32_t card_a = 0;
    uint32_t card_b = 0;
    // Cell c holds rows[offsets[c], offsets[c + 1]); empty when the pair's
    // code-pair space exceeded kMaxPairCells (not indexed).
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> rows;
  };

  uint32_t begin_row = 0;
  uint32_t end_row = 0;
  std::vector<Pair> pairs;

  std::span<const uint32_t> Rows(uint32_t slot, ValueId a, ValueId b) const {
    const Pair& p = pairs[slot];
    if (a >= p.card_a || b >= p.card_b) return {};
    const size_t cell = static_cast<size_t>(a) * p.card_b + b;
    return {p.rows.data() + p.offsets[cell],
            p.rows.data() + p.offsets[cell + 1]};
  }
};

namespace {

constexpr uint32_t kNoPair = UINT32_MAX;
constexpr uint32_t kNoCell = UINT32_MAX;

}  // namespace

// Builds one PairSegment by counting sort over code-pair cells, fed the
// same block windows that build the per-code lists.
class WebDatabase::PairSegmentBuilder {
 public:
  PairSegmentBuilder(const ColumnarRelation& cols,
                     const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                     uint32_t begin_row, uint32_t end_row)
      : pairs_(pairs), cells_(pairs.size()) {
    seg_.begin_row = begin_row;
    seg_.end_row = end_row;
    seg_.pairs.resize(pairs.size());
    for (size_t s = 0; s < pairs.size(); ++s) {
      PairSegment::Pair& p = seg_.pairs[s];
      const size_t card_a = cols.dict(pairs[s].first).size();
      const size_t card_b = cols.dict(pairs[s].second).size();
      if (card_a * card_b > kMaxPairCells) continue;
      p.card_a = static_cast<uint32_t>(card_a);
      p.card_b = static_cast<uint32_t>(card_b);
      p.offsets.assign(card_a * card_b + 1, 0);
      cells_[s].resize(end_row - begin_row);
    }
  }

  // Records the cells of window rows [first, w.num_rows) — all inside the
  // segment. Window code pointers are indexed by attribute.
  void Add(const ColumnarRelation::CodeWindow& w, size_t first) {
    for (size_t s = 0; s < pairs_.size(); ++s) {
      PairSegment::Pair& p = seg_.pairs[s];
      if (p.offsets.empty()) continue;
      const ValueId* a = w.codes[pairs_[s].first];
      const ValueId* b = w.codes[pairs_[s].second];
      uint32_t* cell = cells_[s].data() + (w.begin_row + first - seg_.begin_row);
      uint32_t* counts = p.offsets.data() + 1;
      for (size_t i = first; i < w.num_rows; ++i, ++cell) {
        if (a[i] == ValueDict::kNullCode || b[i] == ValueDict::kNullCode) {
          *cell = kNoCell;
          continue;
        }
        *cell = a[i] * p.card_b + b[i];
        ++counts[*cell];
      }
    }
  }

  std::shared_ptr<const PairSegment> Finish() {
    for (size_t s = 0; s < pairs_.size(); ++s) {
      PairSegment::Pair& p = seg_.pairs[s];
      if (p.offsets.empty()) continue;
      for (size_t c = 1; c < p.offsets.size(); ++c) {
        p.offsets[c] += p.offsets[c - 1];
      }
      p.rows.resize(p.offsets.back());
      // Scatter in row order, so each cell's rows come out ascending; the
      // cursors start at each cell's begin and end at the next cell's.
      std::vector<uint32_t> next(p.offsets.begin(), p.offsets.end() - 1);
      uint32_t row = seg_.begin_row;
      for (const uint32_t cell : cells_[s]) {
        if (cell != kNoCell) p.rows[next[cell]++] = row;
        ++row;
      }
      std::vector<uint32_t>().swap(cells_[s]);
    }
    return std::make_shared<const PairSegment>(std::move(seg_));
  }

 private:
  const std::vector<std::pair<uint32_t, uint32_t>>& pairs_;
  PairSegment seg_;
  // cells_[slot][row - begin_row]: the row's cell, or kNoCell.
  std::vector<std::vector<uint32_t>> cells_;
};

void WebDatabase::BuildIndexes() {
  cols_ = data_.columnar();
  BuildPostingLists();
}

void WebDatabase::InitPairs() {
  const Schema& schema = cols_->schema();
  const size_t n = schema.NumAttributes();
  pairs_.clear();
  pair_slot_.assign(n * n, kNoPair);
  for (size_t a = 0; a < n; ++a) {
    if (schema.attribute(a).type != AttrType::kCategorical) continue;
    for (size_t b = a + 1; b < n; ++b) {
      if (schema.attribute(b).type != AttrType::kCategorical) continue;
      pair_slot_[a * n + b] = static_cast<uint32_t>(pairs_.size());
      pairs_.emplace_back(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
    }
  }
}

void WebDatabase::UpdatePairUsable() {
  pair_usable_.assign(pairs_.size(), segments_.empty() ? 0 : 1);
  for (const auto& seg : segments_) {
    for (size_t s = 0; s < pairs_.size(); ++s) {
      if (seg->pairs[s].offsets.empty()) pair_usable_[s] = 0;
    }
  }
}

void WebDatabase::BuildPostingLists() {
  if (!postings_.empty()) return;
  const size_t n = cols_->NumAttributes();
  const uint32_t num_rows = static_cast<uint32_t>(cols_->NumRows());
  InitPairs();
  postings_.assign(n, {});
  std::vector<size_t> attrs;
  attrs.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    postings_[a].resize(cols_->dict(a).size());
    attrs.push_back(a);
  }
  PairSegmentBuilder pairs(*cols_, pairs_, 0, num_rows);
  // One sequential pass over aligned block windows covers both storage
  // modes; plain mode yields a single window spanning the relation.
  ColumnarRelation::WindowCursor cursor = cols_->ScanBlocks(std::move(attrs));
  ColumnarRelation::CodeWindow w;
  while (cursor.Next(&w)) {
    for (size_t a = 0; a < n; ++a) {
      const ValueId* codes = w.codes[a];
      for (size_t i = 0; i < w.num_rows; ++i) {
        if (codes[i] == ValueDict::kNullCode) continue;
        postings_[a][codes[i]].push_back(
            static_cast<uint32_t>(w.begin_row + i));
      }
    }
    pairs.Add(w, 0);
  }
  if (num_rows > 0) segments_.push_back(pairs.Finish());
  UpdatePairUsable();
}

void WebDatabase::ExtendPostingLists(const WebDatabase& prev) {
  if (!postings_.empty()) return;
  if (prev.postings_.empty()) {
    BuildPostingLists();
    return;
  }
  const size_t n = cols_->NumAttributes();
  const uint32_t from_row = static_cast<uint32_t>(prev.cols_->NumRows());
  const uint32_t num_rows = static_cast<uint32_t>(cols_->NumRows());
  // Old lists carry over verbatim: append-only dictionaries keep every old
  // code's row set, and all delta row ids are >= from_row, so appending
  // keeps each list ascending.
  postings_ = prev.postings_;
  pairs_ = prev.pairs_;
  pair_slot_ = prev.pair_slot_;
  segments_ = prev.segments_;
  std::vector<size_t> attrs;
  attrs.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    postings_[a].resize(cols_->dict(a).size());
    attrs.push_back(a);
  }
  // The delta's pair segment absorbs the trailing segments no larger than
  // it, which are rebuilt together: shared segments are never modified.
  uint32_t seg_begin = from_row;
  while (!segments_.empty() &&
         segments_.back()->end_row - segments_.back()->begin_row <=
             num_rows - seg_begin) {
    seg_begin = segments_.back()->begin_row;
    segments_.pop_back();
  }
  PairSegmentBuilder pairs(*cols_, pairs_, seg_begin, num_rows);
  // Scan only from the rebuilt segment's first row: windows entirely before
  // it are skipped without decoding work beyond the cursor walk.
  ColumnarRelation::WindowCursor cursor = cols_->ScanBlocks(std::move(attrs));
  ColumnarRelation::CodeWindow w;
  while (cursor.Next(&w)) {
    if (w.begin_row + w.num_rows <= seg_begin) continue;
    const size_t seg_first =
        seg_begin > w.begin_row ? seg_begin - w.begin_row : 0;
    pairs.Add(w, seg_first);
    if (w.begin_row + w.num_rows <= from_row) continue;
    const size_t first = from_row > w.begin_row ? from_row - w.begin_row : 0;
    for (size_t a = 0; a < n; ++a) {
      const ValueId* codes = w.codes[a];
      for (size_t i = first; i < w.num_rows; ++i) {
        if (codes[i] == ValueDict::kNullCode) continue;
        postings_[a][codes[i]].push_back(
            static_cast<uint32_t>(w.begin_row + i));
      }
    }
  }
  if (seg_begin < num_rows) segments_.push_back(pairs.Finish());
  UpdatePairUsable();
}

size_t WebDatabase::PairIndexBytes() const {
  size_t bytes = 0;
  for (const auto& seg : segments_) {
    for (const PairSegment::Pair& p : seg->pairs) {
      bytes += (p.offsets.capacity() + p.rows.capacity()) * sizeof(uint32_t);
    }
  }
  return bytes;
}

Status WebDatabase::ValidateBooleanQuery(const SelectionQuery& query) const {
  for (const Predicate& p : query.predicates()) {
    if (p.op == CompareOp::kLike) {
      return Status::InvalidArgument(
          "autonomous source '" + name_ +
          "' supports only boolean queries; got imprecise predicate: " +
          p.ToString());
    }
    if (!schema().Contains(p.attribute)) {
      return Status::NotFound("source '" + name_ +
                              "' has no attribute named '" + p.attribute +
                              "'");
    }
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> WebDatabase::ExecuteRows(
    const SelectionQuery& query) const {
  AIMQ_RETURN_NOT_OK(ValidateBooleanQuery(query));

  // Index-assisted evaluation: drive the scan from the shortest posting
  // list the query's equalities select, then filter the rest column by
  // column. Packed sources keep no posting lists unless BuildPostingLists
  // ran; without them they use the block scan below.
  CodedConjunction compiled = CodedConjunction::Compile(query, *cols_);
  static const std::vector<uint32_t> kEmpty;
  // Predicate i's per-code posting list, or nullptr for a non-equality.
  auto list_of = [&](size_t i) -> const std::vector<uint32_t>* {
    size_t attr = 0;
    ValueId code = 0;
    if (!compiled.EqualityCode(i, &attr, &code)) return nullptr;
    return code < postings_[attr].size() ? &postings_[attr][code] : &kEmpty;
  };
  const std::vector<uint32_t>* candidates = nullptr;
  size_t driving = SIZE_MAX;
  if (!postings_.empty()) {
    for (size_t i = 0; i < compiled.NumPredicates(); ++i) {
      const std::vector<uint32_t>* rows = list_of(i);
      if (rows == nullptr) continue;
      if (candidates == nullptr || rows->size() < candidates->size()) {
        candidates = rows;
        driving = i;
      }
    }
  }
  if (candidates == nullptr) {
    Result<std::vector<uint32_t>> out = compiled.EvaluateAll();
    if (out.ok()) AccountProbe(out.ValueOrDie().size());
    return out;
  }
  if (compiled.CanFail()) {
    // Errors are per evaluated row, so which rows are evaluated, and in
    // which order, is observable: keep the per-code driver and the per-row
    // loop.
    Result<std::vector<uint32_t>> out = compiled.EvaluateCandidates(
        *candidates, CodedConjunction::PredicateSet::Of(driving));
    if (out.ok()) AccountProbe(out.ValueOrDie().size());
    return out;
  }

  // A pair of equalities on two categorical attributes may select a
  // shorter code-pair list. Every length is known without touching a row.
  const size_t n = cols_->NumAttributes();
  size_t best = candidates->size();
  size_t pair_i = SIZE_MAX, pair_j = SIZE_MAX;
  uint32_t pair_slot = kNoPair;
  ValueId pair_a = 0, pair_b = 0;  // the codes of pair (a, b), a < b
  for (size_t i = 0; i < compiled.NumPredicates() && best > 0; ++i) {
    size_t attr_i = 0;
    ValueId code_i = 0;
    if (!compiled.EqualityCode(i, &attr_i, &code_i)) continue;
    for (size_t j = i + 1; j < compiled.NumPredicates(); ++j) {
      size_t attr_j = 0;
      ValueId code_j = 0;
      if (!compiled.EqualityCode(j, &attr_j, &code_j)) continue;
      if (attr_i == attr_j) continue;
      const bool ordered = attr_i < attr_j;
      const uint32_t slot = ordered ? pair_slot_[attr_i * n + attr_j]
                                    : pair_slot_[attr_j * n + attr_i];
      if (slot == kNoPair || pair_usable_[slot] == 0) continue;
      const ValueId a = ordered ? code_i : code_j;
      const ValueId b = ordered ? code_j : code_i;
      size_t length = 0;
      for (const auto& seg : segments_) length += seg->Rows(slot, a, b).size();
      // Ties go to the pair: it satisfies two predicates, not one.
      if (length <= best) {
        best = length;
        pair_i = i;
        pair_j = j;
        pair_slot = slot;
        pair_a = a;
        pair_b = b;
      }
    }
  }

  compiled.OrderEqualities([&](size_t i) {
    const std::vector<uint32_t>* rows = list_of(i);
    return rows == nullptr ? SIZE_MAX : rows->size();
  });
  std::vector<uint32_t> out;
  if (pair_slot == kNoPair) {
    out.reserve(candidates->size());
    compiled.FilterCandidates(
        *candidates, CodedConjunction::PredicateSet::Of(driving), &out);
  } else {
    CodedConjunction::PredicateSet satisfied =
        CodedConjunction::PredicateSet::Of(pair_i);
    satisfied.Add(pair_j);
    out.reserve(best);
    for (const auto& seg : segments_) {
      compiled.FilterCandidates(seg->Rows(pair_slot, pair_a, pair_b),
                                satisfied, &out);
    }
  }
  AccountProbe(out.size());
  return out;
}

Result<std::vector<Tuple>> WebDatabase::Execute(
    const SelectionQuery& query) const {
  AIMQ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows, ExecuteRows(query));
  return Materialize(rows);
}

std::vector<Tuple> WebDatabase::Materialize(
    const std::vector<uint32_t>& rows) const {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (uint32_t row : rows) out.push_back(MaterializeRow(row));
  return out;
}

std::string WebDatabase::CodedProbeKey(const SelectionQuery& query) const {
  // One predicate as a fixed-size record: sorting records, then encoding
  // them in sorted order, gives every predicate order the same key without
  // building a string per predicate. Text fields point into the query.
  struct Part {
    uint32_t attr = 0;          // schema index; UINT32_MAX when unknown
    std::string_view name;      // the raw attribute name, when unknown
    uint8_t op = 0;
    char tag = '0';             // '0' null, 'c' code, 'n' number, 's' string
    uint64_t payload = 0;       // code or the number's bits
    std::string_view text;      // tag 's'
    auto Fields() const { return std::tie(attr, name, op, tag, payload, text); }
  };
  std::vector<Part> parts;
  parts.reserve(query.NumPredicates());
  size_t bytes = 16;
  for (const Predicate& p : query.predicates()) {
    Part part;
    part.op = static_cast<uint8_t>(p.op);
    if (auto index = schema().IndexOf(p.attribute); index.ok()) {
      part.attr = static_cast<uint32_t>(index.ValueOrDie());
    } else {
      // Unknown attribute (rejected at execution): key on the raw name.
      part.attr = UINT32_MAX;
      part.name = p.attribute;
    }
    if (p.value.is_null()) {
      part.tag = '0';
    } else if (const ValueId code =
                   p.op != CompareOp::kEq || part.attr == UINT32_MAX
                       ? ValueDict::kAbsentCode
                       : cols_->dict(part.attr).Lookup(p.value);
               code != ValueDict::kAbsentCode) {
      // Resolving equalities through the dictionary makes equal values
      // share a key (-0.0 finds 0.0's code, exactly as equality evaluates
      // them).
      part.tag = 'c';
      part.payload = code;
    } else if (p.value.is_numeric()) {
      part.tag = 'n';
      const double d = p.value.AsNum();
      static_assert(sizeof(part.payload) == sizeof(double), "double is 64-bit");
      __builtin_memcpy(&part.payload, &d, sizeof(d));
    } else {
      part.tag = 's';
      part.text = p.value.AsCat();
    }
    bytes += 24 + part.name.size() + part.text.size();
    parts.push_back(part);
  }
  std::sort(parts.begin(), parts.end(), [](const Part& x, const Part& y) {
    return x.Fields() < y.Fields();
  });
  // Prefix with the columnar snapshot's identity: codes and row ids are only
  // meaningful relative to one snapshot, so a cache shared across sources —
  // or across live-ingest versions — can never cross-hit. Version + uid, not
  // the snapshot's address: a freed snapshot's address can be ABA-reused by
  // its successor, which would let stale cached rows poison new-version
  // answers. Text fields are length-prefixed, so the encoding is injective.
  std::string key;
  key.reserve(bytes);
  AppendU64(&key, cols_->snapshot_version());
  AppendU64(&key, cols_->snapshot_uid());
  for (const Part& part : parts) {
    AppendU32(&key, part.attr);
    if (part.attr == UINT32_MAX) {
      AppendU32(&key, static_cast<uint32_t>(part.name.size()));
      key += part.name;
    }
    key.push_back(static_cast<char>(part.op));
    key.push_back(part.tag);
    if (part.tag == 'c') {
      AppendU32(&key, static_cast<uint32_t>(part.payload));
    } else if (part.tag == 'n') {
      AppendU64(&key, part.payload);
    } else if (part.tag == 's') {
      AppendU32(&key, static_cast<uint32_t>(part.text.size()));
      key += part.text;
    }
  }
  return key;
}

Result<std::vector<Value>> WebDatabase::FormValues(
    const std::string& attribute) const {
  AIMQ_ASSIGN_OR_RETURN(size_t index, schema().IndexOf(attribute));
  if (schema().attribute(index).type != AttrType::kCategorical) {
    return Status::InvalidArgument(
        "form drop-downs exist only for categorical attributes; '" +
        attribute + "' is numeric");
  }
  // The dictionary holds exactly the distinct non-null values (first-seen
  // order), in either storage mode.
  std::vector<Value> values = cols_->dict(index).values();
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace aimq
