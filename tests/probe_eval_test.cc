// Probe-evaluation equivalence: one seeded probe mix evaluated three ways —
// WebDatabase::ExecuteRows driven from posting lists, a full
// CodedConjunction::EvaluateAll scan, and SelectionQuery::Evaluate over the
// row store — on plain data, on packed data after BuildPostingLists, on a
// live snapshot grown by several ColumnarRelation::Extend +
// ExtendPostingLists publishes, and under forced-scalar dispatch. Row ids
// and Status must match. A second mix — Algorithm 1's relaxation families
// plus hand-picked corners — exercises probes the source drives from
// code-pair lists.
//
// Errors are per evaluated row: a posting list restricts which rows are
// evaluated, so a candidate-driven probe is compared against the row store
// evaluated over the same posting list, in the same order. Whenever the full
// row-store scan succeeds the restriction is unobservable and all three
// agree on the row ids outright.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/selection_query.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "core/relaxation.h"
#include "simd/dispatch.h"
#include "util/rng.h"
#include "webdb/coded_query.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

// Forces a dispatch tier for one scope, restoring the prior tier after.
class ScopedIsa {
 public:
  explicit ScopedIsa(const char* name) : prev_(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::ForceIsa(name).ok());
  }
  ~ScopedIsa() { (void)simd::ForceIsa(simd::IsaName(prev_)); }

 private:
  simd::Isa prev_;
};

const double kNan = std::nan("");

Schema TestSchema() {
  // Grade is categorical but only ever holds numbers (unvalidated appends):
  // an all-numeric dictionary with no raw double column.
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric},
                       {"Mileage", AttrType::kNumeric},
                       {"Grade", AttrType::kCategorical}})
      .ValueOrDie();
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& options) {
  return options[rng.Uniform(options.size())];
}

Value MakeValue(Rng& rng) {
  return Pick(rng, std::vector<Value>{Value::Cat("Ford"), Value::Cat("Kia"),
                                      Value::Cat("Fiat"), Value::Cat("Audi"),
                                      Value()});
}

Value ModelValue(Rng& rng) {
  return Pick(rng, std::vector<Value>{Value::Cat("A"), Value::Cat("B"),
                                      Value::Cat("C"), Value::Cat("D"),
                                      Value::Cat("E"), Value()});
}

// Prices cluster on a few values (so equality probes hit) and include the
// IEEE corners: -0.0 next to 0.0, NaN, and nulls.
Value PriceValue(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return Pick(rng, std::vector<Value>{Value::Num(0.0), Value::Num(-0.0),
                                          Value::Num(kNan), Value()});
    case 1:
      return Value::Num(static_cast<double>(rng.Uniform(8)) * 250.0);
    default:
      return Value::Num(static_cast<double>(rng.Uniform(40)) * 250.0);
  }
}

Value MileageValue(Rng& rng) {
  if (rng.Bernoulli(0.1)) return Value();
  return Value::Num(static_cast<double>(rng.Uniform(20)) * 5000.0);
}

// One row. \p unvalidated rows may carry a non-numeric Mileage (when
// \p dirty) and a numeric Grade — values Relation::Append would reject;
// validated rows (the live delta) keep Grade null.
Tuple RandomRow(Rng& rng, bool unvalidated, bool dirty) {
  Value mileage = MileageValue(rng);
  if (unvalidated && dirty && rng.Bernoulli(0.02)) mileage = Value::Cat("n/a");
  Value grade;
  if (unvalidated && !rng.Bernoulli(0.2)) {
    grade = Value::Num(static_cast<double>(rng.Uniform(4)));
  }
  return Tuple({MakeValue(rng), ModelValue(rng), PriceValue(rng),
                std::move(mileage), std::move(grade)});
}

Predicate RangePredicate(Rng& rng, const std::string& attr) {
  const CompareOp op = Pick(rng, std::vector<CompareOp>{
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe});
  Value threshold;
  if (attr == "Grade") {
    threshold = Value::Num(static_cast<double>(rng.Uniform(4)));
  } else if (attr == "Mileage") {
    threshold = Value::Num(static_cast<double>(rng.Uniform(20)) * 5000.0);
  } else {
    threshold = rng.Bernoulli(0.2)
                    ? Pick(rng, std::vector<Value>{Value::Num(0.0),
                                                   Value::Num(-0.0),
                                                   Value::Num(kNan)})
                    : Value::Num(static_cast<double>(rng.Uniform(40)) * 250.0);
  }
  return Predicate(attr, op, std::move(threshold));
}

Predicate EqPredicate(Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
    case 1:
      return Predicate::Eq("Make", MakeValue(rng));
    case 2:
    case 3:
      return Predicate::Eq("Model", ModelValue(rng));
    case 4:
      return Predicate::Eq("Price", PriceValue(rng));
    case 5:
      return Predicate::Eq("Grade",
                           Value::Num(static_cast<double>(rng.Uniform(5))));
    case 6:  // constants the source never stored
      return Pick(rng, std::vector<Predicate>{
                           Predicate::Eq("Make", Value::Cat("NoSuchMake")),
                           Predicate::Eq("Price", Value::Num(123.5)),
                           Predicate::Eq("Price", Value::Num(kNan)),
                           Predicate::Eq("Model", Value::Num(3))});
    default:
      return Predicate::Eq("Mileage", MileageValue(rng));
  }
}

Predicate AnyPredicate(Rng& rng) {
  switch (rng.Uniform(20)) {
    case 0:
      return Predicate::Like("Model", Value::Cat("A"));
    case 1:
      return Predicate::Eq("NoSuchAttr", Value::Cat("x"));
    case 2:  // range with a non-numeric operand
      return Predicate("Price", CompareOp::kLt, Value::Cat("cheap"));
    case 3:
    case 4:
      return RangePredicate(rng, "Mileage");
    case 5:
      return RangePredicate(rng, "Grade");
    case 6:
    case 7:
    case 8:
      return RangePredicate(rng, "Price");
    default:
      return EqPredicate(rng);
  }
}

std::vector<SelectionQuery> ProbeMix(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<SelectionQuery> probes;
  for (size_t i = 0; i < count; ++i) {
    SelectionQuery q;
    switch (rng.Uniform(5)) {
      case 0: {  // numeric band: two ranges on one attribute
        q.AddPredicate(EqPredicate(rng));
        const double lo = static_cast<double>(rng.Uniform(20)) * 250.0;
        q.AddPredicate(Predicate("Price", CompareOp::kGe, Value::Num(lo)));
        q.AddPredicate(
            Predicate("Price", CompareOp::kLe, Value::Num(lo + 2500.0)));
        break;
      }
      case 1: {  // two equalities on one attribute
        const Predicate p = EqPredicate(rng);
        q.AddPredicate(p);
        q.AddPredicate(rng.Bernoulli(0.5)
                           ? p
                           : Predicate::Eq(p.attribute, MakeValue(rng)));
        break;
      }
      default: {
        const size_t n = 1 + rng.Uniform(3);
        for (size_t k = 0; k < n; ++k) q.AddPredicate(AnyPredicate(rng));
        break;
      }
    }
    probes.push_back(std::move(q));
  }
  probes.emplace_back();  // the empty conjunction
  return probes;
}

// "OK [r0 r1 ...]" or "ERR <status>": one comparable rendering of a result.
template <typename Row>
std::string Render(const Result<std::vector<Row>>& result) {
  if (!result.ok()) return "ERR " + result.status().ToString();
  std::string out = "OK [";
  for (Row r : *result) out += " " + std::to_string(r);
  return out + " ]";
}

// The row store evaluated over \p rows in order: the oracle for a probe
// whose evaluation is restricted to a posting list.
Result<std::vector<size_t>> RowStoreOver(const SelectionQuery& q,
                                         const Relation& rel,
                                         const std::vector<uint32_t>& rows) {
  std::vector<size_t> out;
  for (uint32_t r : rows) {
    AIMQ_ASSIGN_OR_RETURN(bool match, q.Matches(rel.schema(), rel.tuple(r)));
    if (match) out.push_back(r);
  }
  return out;
}

// Rows holding \p p's value in \p p's attribute: \p p's posting list.
std::vector<uint32_t> PostingList(const Relation& rel, const Predicate& p) {
  const size_t attr = rel.schema().IndexOf(p.attribute).ValueOrDie();
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < rel.NumTuples(); ++r) {
    if (rel.tuple(r).At(attr) == p.value) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

bool IsPostingPredicate(const Schema& schema, const Predicate& p) {
  return p.op == CompareOp::kEq && !p.value.is_null() &&
         schema.Contains(p.attribute);
}

// One probe on one source: the three evaluations, and the candidate path
// driven from every equality predicate's posting list.
void ExpectProbeAgrees(const SelectionQuery& q, const Relation& rel,
                       const WebDatabase& db, const std::string& label) {
  const ColumnarRelation& cols = *db.columnar();
  const std::string full = Render(q.Evaluate(rel));
  const CodedConjunction compiled = CodedConjunction::Compile(q, cols);
  EXPECT_EQ(Render(compiled.EvaluateAll()), full) << label;

  const std::vector<Predicate>& preds = q.predicates();
  size_t driving = SIZE_MAX;
  std::vector<uint32_t> driving_rows;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (!IsPostingPredicate(cols.schema(), preds[i])) continue;
    const std::vector<uint32_t> rows = PostingList(rel, preds[i]);
    const std::string want = Render(RowStoreOver(q, rel, rows));
    EXPECT_EQ(Render(compiled.EvaluateCandidates(
                  rows, CodedConjunction::PredicateSet::Of(i))),
              want)
        << label << " driven by predicate " << i;
    EXPECT_EQ(Render(compiled.EvaluateCandidates(rows, {})), want)
        << label << " over predicate " << i << "'s rows, none skipped";
    if (full.rfind("OK", 0) == 0) {
      EXPECT_EQ(want, full) << label;
    }
    // ExecuteRows drives from the shortest posting list, first on ties.
    if (driving == SIZE_MAX || rows.size() < driving_rows.size()) {
      driving = i;
      driving_rows = rows;
    }
  }

  bool boolean_query = true;
  for (const Predicate& p : preds) {
    boolean_query = boolean_query && p.op != CompareOp::kLike &&
                    cols.schema().Contains(p.attribute);
  }
  const auto executed = db.ExecuteRows(q);
  if (!boolean_query) {
    // The source rejects 'like' and unknown attributes before evaluating.
    EXPECT_FALSE(executed.ok()) << label;
    return;
  }
  const std::string want =
      driving == SIZE_MAX ? full : Render(RowStoreOver(q, rel, driving_rows));
  EXPECT_EQ(Render(executed), want) << label;
}

// The three sources over the same rows: plain (postings built by the
// constructor), packed with BuildPostingLists, and a live snapshot grown
// from the first rows by several Extend + ExtendPostingLists publishes of
// uneven size, so its code-pair segments are shared, merged and left
// unmerged. Some delta rows carry a Make the base never stored, so older
// segments lack its codes.
struct Sources {
  Relation rows;
  std::vector<std::pair<std::string, std::unique_ptr<WebDatabase>>> dbs;
};

Sources BuildSources(uint64_t seed, bool dirty) {
  constexpr size_t kBaseRows = 500;
  constexpr size_t kDeltaRows = 200;
  const std::vector<size_t> kPublishes = {50, 50, 30, 50, 20};
  Rng rng(seed);
  Rng fresh(seed + 1000);
  Sources s;
  s.rows = Relation(TestSchema());
  Relation base(TestSchema());
  std::vector<Tuple> delta;
  for (size_t r = 0; r < kBaseRows; ++r) {
    Tuple t = RandomRow(rng, /*unvalidated=*/true, dirty);
    base.AppendUnchecked(t);
    s.rows.AppendUnchecked(std::move(t));
  }
  for (size_t r = 0; r < kDeltaRows; ++r) {
    Tuple t = RandomRow(rng, /*unvalidated=*/false, dirty);
    if (fresh.Bernoulli(0.1)) t.At(0) = Value::Cat("Seat");
    delta.push_back(t);
    s.rows.AppendUnchecked(std::move(t));
  }

  s.dbs.emplace_back("plain", std::make_unique<WebDatabase>("Plain", s.rows));

  ColumnarBuilder::Options opts;
  opts.store.block_size = 64;  // many blocks, so windows straddle
  std::unique_ptr<ColumnarBuilder> builder =
      std::move(ColumnarBuilder::Create(TestSchema(), opts).ValueOrDie());
  for (const Tuple& t : s.rows.tuples()) {
    EXPECT_TRUE(builder->AppendRow(t).ok());
  }
  auto packed_db = std::make_unique<WebDatabase>(
      "Packed", builder->Finish().ValueOrDie());
  packed_db->BuildPostingLists();
  s.dbs.emplace_back("packed", std::move(packed_db));

  auto live_db = std::make_unique<WebDatabase>("Live", std::move(base));
  size_t published = 0;
  uint64_t version = 0;
  for (const size_t batch : kPublishes) {
    const std::vector<Tuple> part(delta.begin() + published,
                                  delta.begin() + published + batch);
    published += batch;
    auto grown = ColumnarRelation::Extend(*live_db->columnar(), part,
                                          /*new_version=*/++version);
    EXPECT_TRUE(grown.ok()) << grown.status().ToString();
    auto next = std::make_unique<WebDatabase>("Live", grown.ValueOrDie());
    next->ExtendPostingLists(*live_db);
    live_db = std::move(next);  // the next version shares its segments
  }
  EXPECT_EQ(published, kDeltaRows);
  s.dbs.emplace_back("live", std::move(live_db));
  return s;
}

void RunProbeMix(uint64_t seed, bool dirty) {
  const Sources s = BuildSources(seed, dirty);
  const std::vector<SelectionQuery> probes = ProbeMix(seed * 31 + 7, 400);
  for (const auto& [name, db] : s.dbs) {
    ASSERT_TRUE(db->has_posting_lists()) << name;
    ASSERT_EQ(db->NumTuples(), s.rows.NumTuples()) << name;
    for (size_t qi = 0; qi < probes.size(); ++qi) {
      ExpectProbeAgrees(probes[qi], s.rows, *db,
                        name + " probe " + std::to_string(qi) + " " +
                            probes[qi].ToString());
    }
  }
}

TEST(ProbeEvalTest, CleanNumericColumns) {
  for (uint64_t seed : {1u, 2u, 3u}) RunProbeMix(seed, /*dirty=*/false);
}

TEST(ProbeEvalTest, NonNumericValueInNumericColumn) {
  for (uint64_t seed : {4u, 5u, 6u}) RunProbeMix(seed, /*dirty=*/true);
}

TEST(ProbeEvalTest, ForcedScalarDispatch) {
  ScopedIsa scalar("scalar");
  RunProbeMix(7, /*dirty=*/false);
  RunProbeMix(8, /*dirty=*/true);
}

TEST(ProbeEvalTest, MixCoversEveryPath) {
  // Guards the generator: the mix must reach matching and empty answers,
  // row-level errors, and the source's validation rejections.
  const Sources s = BuildSources(1, /*dirty=*/true);
  size_t nonempty = 0, empty = 0, errors = 0, rejected = 0;
  for (const SelectionQuery& q : ProbeMix(1 * 31 + 7, 400)) {
    const auto full = q.Evaluate(s.rows);
    if (!full.ok()) {
      ++errors;
    } else if (full->empty()) {
      ++empty;
    } else {
      ++nonempty;
    }
    const auto executed = s.dbs[0].second->ExecuteRows(q);
    if (!executed.ok() &&
        executed.status().message().find("supports only boolean") !=
            std::string::npos) {
      ++rejected;
    }
  }
  EXPECT_GT(nonempty, 50u);
  EXPECT_GT(empty, 50u);
  EXPECT_GT(errors, 20u);
  EXPECT_GT(rejected, 5u);
}

bool IsCategorical(const Schema& schema, const Predicate& p) {
  return schema.attribute(schema.IndexOf(p.attribute).ValueOrDie()).type ==
         AttrType::kCategorical;
}

// True when two equalities on distinct categorical attributes select fewer
// rows together than any one equality alone: a probe the source drives from
// a code-pair list unless it can fail.
bool PairListIsShorter(const SelectionQuery& q, const Relation& rel) {
  const Schema& schema = rel.schema();
  const std::vector<Predicate>& preds = q.predicates();
  size_t single = SIZE_MAX, pair = SIZE_MAX;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (!IsPostingPredicate(schema, preds[i])) continue;
    const std::vector<uint32_t> rows = PostingList(rel, preds[i]);
    single = std::min(single, rows.size());
    if (!IsCategorical(schema, preds[i])) continue;
    for (size_t j = i + 1; j < preds.size(); ++j) {
      if (!IsPostingPredicate(schema, preds[j]) ||
          !IsCategorical(schema, preds[j]) ||
          preds[j].attribute == preds[i].attribute) {
        continue;
      }
      const size_t attr_j = schema.IndexOf(preds[j].attribute).ValueOrDie();
      size_t both = 0;
      for (uint32_t r : rows) {
        if (rel.tuple(r).At(attr_j) == preds[j].value) ++both;
      }
      pair = std::min(pair, both);
    }
  }
  return pair < single;
}

// Algorithm 1's relaxation families of a few base and delta rows, at the
// engine's 10% numeric band and at numeric_band = 0 (numeric equalities),
// plus hand-picked pair probes: null constants, absent codes, a code only
// the delta stored, two predicates on one attribute, and conjunctions that
// can fail.
std::vector<SelectionQuery> PairProbeMix(const Relation& rows) {
  const Schema& schema = rows.schema();
  std::vector<size_t> order(schema.NumAttributes());
  for (size_t a = 0; a < order.size(); ++a) order[a] = a;
  std::vector<SelectionQuery> probes;
  for (size_t row : {0u, 7u, 123u, 499u, 510u, 577u, 650u, 699u}) {
    for (double band : {0.0, 0.10}) {
      TupleRelaxer relaxer(schema, rows.tuple(row), order,
                           /*max_relax_attrs=*/0, band);
      while (relaxer.HasNext()) probes.push_back(relaxer.Next());
    }
  }
  const Predicate ford = Predicate::Eq("Make", Value::Cat("Ford"));
  const Predicate kia = Predicate::Eq("Make", Value::Cat("Kia"));
  const Predicate model_a = Predicate::Eq("Model", Value::Cat("A"));
  const Predicate grade_2 = Predicate::Eq("Grade", Value::Num(2));
  const std::vector<std::vector<Predicate>> corners = {
      {ford, model_a},
      {model_a, ford, grade_2},
      {Predicate::Eq("Make", Value()), model_a},
      {ford, Predicate::Eq("Model", Value())},
      {Predicate::Eq("Make", Value::Cat("NoSuchMake")), model_a},
      {Predicate::Eq("Make", Value::Cat("Seat")), model_a},
      {Predicate::Eq("Make", Value::Cat("Seat")), grade_2},
      {ford, kia, model_a},
      {ford, ford, model_a},
      {ford, model_a, Predicate::Eq("Price", Value::Num(500.0))},
      {ford, model_a, Predicate::Eq("Price", Value::Num(-0.0))},
      {ford, model_a, Predicate("Price", CompareOp::kGe, Value::Num(1000.0)),
       Predicate("Price", CompareOp::kLe, Value::Num(5000.0))},
      {ford, model_a,
       Predicate("Mileage", CompareOp::kLt, Value::Num(50000.0))},
      {kia, grade_2, Predicate("Price", CompareOp::kLt, Value::Cat("cheap"))},
      {kia, grade_2, Predicate("Grade", CompareOp::kGe, Value::Num(1.0))},
  };
  for (const std::vector<Predicate>& preds : corners) {
    probes.emplace_back(preds);
  }
  return probes;
}

TEST(ProbeEvalTest, PairDrivenProbes) {
  for (const bool dirty : {false, true}) {
    const Sources s = BuildSources(dirty ? 12 : 11, dirty);
    const std::vector<SelectionQuery> probes = PairProbeMix(s.rows);
    // Guards the mix: many probes must be ones a code-pair list drives.
    size_t pair_driven = 0;
    for (const SelectionQuery& q : probes) {
      if (PairListIsShorter(q, s.rows)) ++pair_driven;
    }
    EXPECT_GT(pair_driven, 40u);
    for (const auto& [name, db] : s.dbs) {
      for (size_t qi = 0; qi < probes.size(); ++qi) {
        ExpectProbeAgrees(probes[qi], s.rows, *db,
                          name + (dirty ? " dirty" : " clean") + " probe " +
                              std::to_string(qi) + " " +
                              probes[qi].ToString());
      }
    }
  }
}

TEST(ProbeEvalTest, PairDrivenProbesForcedScalar) {
  ScopedIsa scalar("scalar");
  const Sources s = BuildSources(13, /*dirty=*/true);
  for (const SelectionQuery& q : PairProbeMix(s.rows)) {
    for (const auto& [name, db] : s.dbs) {
      ExpectProbeAgrees(q, s.rows, *db, name + " " + q.ToString());
    }
  }
}

}  // namespace
}  // namespace aimq
