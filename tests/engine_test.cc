#include "core/engine.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "datagen/cardb.h"

namespace aimq {
namespace {

// Shared small CarDB + engine; built once because offline learning, while
// fast, is not free.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 6000;
    spec.seed = 99;
    CarDbGenerator generator(spec);
    db_ = new WebDatabase("CarDB", generator.Generate());
    options_ = new AimqOptions();
    options_->collector.sample_size = 3000;
    options_->tsim = 0.4;
    options_->top_k = 10;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    engine_ = new AimqEngine(db_, knowledge.TakeValue(), *options_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete options_;
    delete db_;
    engine_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
  }

  static WebDatabase* db_;
  static AimqOptions* options_;
  static AimqEngine* engine_;
};

WebDatabase* EngineTest::db_ = nullptr;
AimqOptions* EngineTest::options_ = nullptr;
AimqEngine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, AnswerReturnsRankedTuples) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_FALSE(answers->empty());
  EXPECT_LE(answers->size(), 10u);
  for (size_t i = 1; i < answers->size(); ++i) {
    EXPECT_GE((*answers)[i - 1].similarity, (*answers)[i].similarity);
  }
  for (const RankedAnswer& a : *answers) {
    EXPECT_GE(a.similarity, 0.0);
    EXPECT_LE(a.similarity, 1.0);
  }
}

TEST_F(EngineTest, ExactMatchesRankFirst) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  EXPECT_EQ((*answers)[0].tuple.At(CarDbGenerator::kModel).AsCat(), "Camry");
  EXPECT_DOUBLE_EQ((*answers)[0].similarity, 1.0);
}

TEST_F(EngineTest, AnswersAreDistinct) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Civic"));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  for (size_t i = 0; i < answers->size(); ++i) {
    for (size_t j = i + 1; j < answers->size(); ++j) {
      EXPECT_FALSE((*answers)[i].tuple == (*answers)[j].tuple);
    }
  }
}

TEST_F(EngineTest, MultiAttributeQuery) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(10000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  // Top answers should be price-compatible Camrys or similar sedans.
  const Tuple& top = (*answers)[0].tuple;
  EXPECT_EQ(top.At(CarDbGenerator::kModel).AsCat(), "Camry");
  double price = top.At(CarDbGenerator::kPrice).AsNum();
  EXPECT_GT(price, 5000);
  EXPECT_LT(price, 15000);
}

TEST_F(EngineTest, StatsAccumulateDuringAnswer) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Accord"));
  RelaxationStats stats;
  auto answers = engine_->Answer(q, RelaxationStrategy::kGuided, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_GT(stats.queries_issued, 0u);
  EXPECT_GT(stats.tuples_extracted, 0u);
}

TEST_F(EngineTest, InvalidQueriesRejected) {
  ImpreciseQuery empty;
  EXPECT_FALSE(engine_->Answer(empty).ok());

  ImpreciseQuery bad;
  bad.Bind("Bogus", Value::Cat("x"));
  EXPECT_FALSE(engine_->Answer(bad).ok());

  ImpreciseQuery mistyped;
  mistyped.Bind("Model", Value::Num(3));
  EXPECT_FALSE(engine_->Answer(mistyped).ok());
}

TEST_F(EngineTest, BaseQueryGeneralizedWhenEmpty) {
  // No car has this exact price, so Qpr returns nothing and must be
  // generalized along the attribute ordering (footnote 2).
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(10001));
  auto base = engine_->DeriveBaseSet(q);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_FALSE(base->empty());
  // The generalization should have kept the more important Model binding.
  EXPECT_EQ((*base)[0].At(CarDbGenerator::kModel).AsCat(), "Camry");
}

TEST_F(EngineTest, DeriveBaseSetUsesExactMatchesWhenAvailable) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  auto base = engine_->DeriveBaseSet(q);
  ASSERT_TRUE(base.ok());
  for (const Tuple& t : *base) {
    EXPECT_EQ(t.At(CarDbGenerator::kModel).AsCat(), "Camry");
  }
}

TEST_F(EngineTest, FindSimilarReachesTarget) {
  const Relation& hidden = db_->hidden_relation_for_testing();
  Tuple anchor = hidden.tuple(42);
  RelaxationStats stats;
  auto similar = engine_->FindSimilar(anchor, 15, 0.5,
                                      RelaxationStrategy::kGuided, &stats);
  ASSERT_TRUE(similar.ok());
  EXPECT_EQ(similar->size(), 15u);
  for (const RankedAnswer& a : *similar) {
    EXPECT_GE(a.similarity, 0.5);
    EXPECT_FALSE(a.tuple == anchor);
  }
  EXPECT_GE(stats.tuples_relevant, 15u);
  EXPECT_GE(stats.tuples_extracted, stats.tuples_relevant);
}

TEST_F(EngineTest, FindSimilarSortedByDescendingSimilarity) {
  const Relation& hidden = db_->hidden_relation_for_testing();
  auto similar = engine_->FindSimilar(hidden.tuple(7), 10, 0.4,
                                      RelaxationStrategy::kGuided);
  ASSERT_TRUE(similar.ok());
  for (size_t i = 1; i < similar->size(); ++i) {
    EXPECT_GE((*similar)[i - 1].similarity, (*similar)[i].similarity);
  }
}

TEST_F(EngineTest, GuidedBeatsRandomOnWorkPerRelevantTuple) {
  const Relation& hidden = db_->hidden_relation_for_testing();
  double guided_work = 0.0, random_work = 0.0;
  for (size_t i = 0; i < 10; ++i) {
    Tuple anchor = hidden.tuple(100 + i * 137);
    RelaxationStats g, r;
    ASSERT_TRUE(engine_
                    ->FindSimilar(anchor, 10, 0.7,
                                  RelaxationStrategy::kGuided, &g)
                    .ok());
    ASSERT_TRUE(engine_
                    ->FindSimilar(anchor, 10, 0.7,
                                  RelaxationStrategy::kRandom, &r)
                    .ok());
    guided_work += g.WorkPerRelevantTuple();
    random_work += r.WorkPerRelevantTuple();
  }
  // The AFD-guided order should not need more extracted tuples per relevant
  // tuple than random relaxation (paper Figures 6 vs 7). Averaged over 10
  // anchors; a 30% slack absorbs small-database variance.
  EXPECT_LE(guided_work, random_work * 1.30);
}

TEST_F(EngineTest, FindSimilarRejectsArityMismatch) {
  EXPECT_FALSE(engine_->FindSimilar(Tuple({Value::Cat("x")}), 5, 0.5,
                                    RelaxationStrategy::kGuided)
                   .ok());
}

TEST_F(EngineTest, ApplyFeedbackShiftsWeightsAndNormalizes) {
  // Build a private engine so the suite-shared one keeps its weights.
  auto knowledge = BuildKnowledge(*db_, *options_);
  ASSERT_TRUE(knowledge.ok());
  AimqEngine engine(db_, knowledge.TakeValue(), *options_);
  std::vector<double> before = engine.knowledge().WimpVector();

  const Relation& hidden = db_->hidden_relation_for_testing();
  Tuple probe = hidden.tuple(11);
  auto answers =
      engine.FindSimilar(probe, 10, 0.4, RelaxationStrategy::kGuided);
  ASSERT_TRUE(answers.ok());
  ASSERT_GE(answers->size(), 3u);

  // A contrarian user: reverses the system's order entirely.
  std::vector<JudgedAnswer> judged;
  for (size_t i = 0; i < answers->size(); ++i) {
    judged.push_back(JudgedAnswer{
        (*answers)[i].tuple, static_cast<int>(answers->size() - i)});
  }
  RelevanceFeedback feedback;
  auto updated = engine.ApplyFeedback(feedback, probe, judged);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  double total = 0.0;
  for (double w : *updated) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The engine's live weights changed.
  EXPECT_NE(*updated, before);
  EXPECT_EQ(engine.knowledge().WimpVector(), *updated);
}

TEST_F(EngineTest, NumericSimKindsAllProduceValidAnswers) {
  for (NumericSimKind kind : {NumericSimKind::kQueryRelative,
                              NumericSimKind::kMinMaxScaled,
                              NumericSimKind::kGaussian}) {
    AimqOptions options = *options_;
    options.numeric_sim = kind;
    auto knowledge = BuildKnowledge(*db_, options);
    ASSERT_TRUE(knowledge.ok());
    AimqEngine engine(db_, knowledge.TakeValue(), options);
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat("Corolla"));
    q.Bind("Price", Value::Num(7000));
    auto answers = engine.Answer(q);
    ASSERT_TRUE(answers.ok());
    ASSERT_FALSE(answers->empty());
    for (const RankedAnswer& a : *answers) {
      EXPECT_GE(a.similarity, 0.0);
      EXPECT_LE(a.similarity, 1.0 + 1e-12);
    }
  }
}

TEST_F(EngineTest, AnswersAreDeterministicForGuidedStrategy) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Jetta"));
  auto a = engine_->Answer(q);
  auto b = engine_->Answer(q);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].tuple, (*b)[i].tuple);
    EXPECT_DOUBLE_EQ((*a)[i].similarity, (*b)[i].similarity);
  }
}

TEST_F(EngineTest, AllAnswersExistInTheDatabase) {
  ImpreciseQuery q;
  q.Bind("Make", Value::Cat("Subaru"));
  q.Bind("Mileage", Value::Num(60000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  const Relation& hidden = db_->hidden_relation_for_testing();
  std::unordered_set<Tuple, TupleHash> all(hidden.tuples().begin(),
                                           hidden.tuples().end());
  for (const RankedAnswer& a : *answers) {
    EXPECT_TRUE(all.count(a.tuple)) << a.tuple.ToString();
  }
}

TEST_F(EngineTest, DuplicateRelaxationProbesAreDeduplicated) {
  // Base tuples of the same model share deep relaxations: probe count must
  // stay well below base_set_size × combinations.
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Taurus"));
  RelaxationStats stats;
  auto answers = engine_->Answer(q, RelaxationStrategy::kGuided, &stats);
  ASSERT_TRUE(answers.ok());
  auto base = engine_->DeriveBaseSet(q);
  ASSERT_TRUE(base.ok());
  size_t base_n = std::min(base->size(), engine_->options().base_set_limit);
  ASSERT_GT(base_n, 1u);
  // Without dedup the engine could issue up to base_n × 126 combination
  // queries (some saved by the per-tuple early stop); dedup must cut that
  // at least in half.
  EXPECT_LT(stats.queries_issued, base_n * 63);
}

TEST_F(EngineTest, AttachedQueryLogRecordsAnswers) {
  auto knowledge = BuildKnowledge(*db_, *options_);
  ASSERT_TRUE(knowledge.ok());
  AimqEngine engine(db_, knowledge.TakeValue(), *options_);
  QueryLog log(&db_->schema());
  engine.AttachQueryLog(&log);

  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(9000));
  ASSERT_TRUE(engine.Answer(q).ok());
  ASSERT_TRUE(engine.Answer(q).ok());
  EXPECT_EQ(log.NumQueries(), 2u);
  EXPECT_EQ(log.BindCount(CarDbGenerator::kModel), 2u);
  EXPECT_EQ(log.BindCount(CarDbGenerator::kPrice), 2u);
  EXPECT_EQ(log.BindCount(CarDbGenerator::kColor), 0u);

  engine.AttachQueryLog(nullptr);
  ASSERT_TRUE(engine.Answer(q).ok());
  EXPECT_EQ(log.NumQueries(), 2u);
}

TEST_F(EngineTest, WorkPerRelevantTupleMetric) {
  RelaxationStats stats;
  stats.tuples_extracted = 40;
  stats.tuples_relevant = 10;
  EXPECT_DOUBLE_EQ(stats.WorkPerRelevantTuple(), 4.0);
  stats.tuples_relevant = 0;
  EXPECT_DOUBLE_EQ(stats.WorkPerRelevantTuple(), 40.0);
}

}  // namespace
}  // namespace aimq
