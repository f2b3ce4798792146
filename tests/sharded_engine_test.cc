// Sharding determinism contract (DESIGN.md §5h): the scatter/gather facade
// and the sharded LiveEngine version built on it must answer bit-identically
// to the unsharded source/engine at every shard count, thread count,
// snapshot mode (plain or packed shards), and ISA tier. Also pins the
// row-range plan and the per-shard posting lists for packed snapshots.

#include "shard/sharded_web_database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "live/live_engine.h"
#include "query/predicate.h"
#include "shard/shard_plan.h"
#include "simd/dispatch.h"

namespace aimq {
namespace {

using simd::Isa;

// Forces a dispatch tier for one scope, restoring the prior tier after.
// ctest runs every case in its own process, so the force cannot leak.
class ScopedIsa {
 public:
  explicit ScopedIsa(const char* name) : prev_(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::ForceIsa(name).ok());
  }
  ~ScopedIsa() { (void)simd::ForceIsa(simd::IsaName(prev_)); }

 private:
  Isa prev_;
};

// ---------------------------------------------------------------------------
// Row-range planning.

TEST(ShardPlanTest, EvenSplit) {
  const std::vector<ShardRange> plan = PlanRowRanges(100, 4);
  ASSERT_EQ(plan.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan[i].begin, 25 * i);
    EXPECT_EQ(plan[i].end, 25 * (i + 1));
  }
}

TEST(ShardPlanTest, RemainderGoesToLeadingShards) {
  const std::vector<ShardRange> plan = PlanRowRanges(10, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].NumRows(), 4u);
  EXPECT_EQ(plan[1].NumRows(), 3u);
  EXPECT_EQ(plan[2].NumRows(), 3u);
}

TEST(ShardPlanTest, ZeroShardsMeansOne) {
  const std::vector<ShardRange> plan = PlanRowRanges(7, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 7u);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptyTails) {
  const std::vector<ShardRange> plan = PlanRowRanges(3, 7);
  ASSERT_EQ(plan.size(), 7u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(plan[i].NumRows(), 1u);
  for (size_t i = 3; i < 7; ++i) EXPECT_EQ(plan[i].NumRows(), 0u);
}

TEST(ShardPlanTest, RangesAreContiguousDisjointAndCoverEveryRow) {
  for (size_t rows : {0u, 1u, 5u, 97u, 1000u}) {
    for (size_t shards = 1; shards <= 9; ++shards) {
      const std::vector<ShardRange> plan = PlanRowRanges(rows, shards);
      ASSERT_EQ(plan.size(), shards);
      uint32_t next = 0;
      for (const ShardRange& range : plan) {
        EXPECT_EQ(range.begin, next);
        EXPECT_LE(range.begin, range.end);
        next = range.end;
      }
      EXPECT_EQ(next, rows) << rows << " rows over " << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Facade + engine equivalence over a real CarDB.

class ShardedCarDbFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
    db_ = new WebDatabase("CarDB", CarDbGenerator(spec).Generate());
    options_ = new AimqOptions();
    options_->collector.sample_size = 300;
    options_->tsim = 0.4;
    options_->top_k = 10;
    options_->base_set_limit = 12;  // small enough that every test query
                                    // exercises the base-set top-k trim
    // No evictions: with coalescing on, an eviction-free cache makes probe
    // accounting (miss exactly once per distinct key) deterministic even
    // under the parallel relaxation fan-out — which is what the stats
    // comparison below asserts.
    options_->probe_cache_capacity = 1 << 15;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete db_;
    knowledge_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
  }

  static std::unique_ptr<ShardedWebDatabase> MakeFacade(size_t shards,
                                                        bool packed) {
    ShardedEngineOptions sharding;
    sharding.num_shards = shards;
    sharding.packed_shards = packed;
    auto facade = ShardedWebDatabase::Create(*db_, sharding);
    EXPECT_TRUE(facade.ok()) << facade.status().ToString();
    return facade.TakeValue();
  }

  static WebDatabase* db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

WebDatabase* ShardedCarDbFixture::db_ = nullptr;
AimqOptions* ShardedCarDbFixture::options_ = nullptr;
MinedKnowledge* ShardedCarDbFixture::knowledge_ = nullptr;

// Test ids keep their ShardedEngineTest suite name.
using ShardedEngineTest = ShardedCarDbFixture;

SelectionQuery MakeQuery(std::vector<Predicate> predicates) {
  return SelectionQuery(std::move(predicates));
}

std::vector<ImpreciseQuery> TestQueries() {
  std::vector<ImpreciseQuery> queries;
  for (const char* model : {"Camry", "Civic", "Altima", "Outback"}) {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat(model));
    queries.push_back(std::move(q));
  }
  ImpreciseQuery two;
  two.Bind("Model", Value::Cat("Accord"));
  two.Bind("Price", Value::Num(10000));
  queries.push_back(std::move(two));
  return queries;
}

TEST_F(ShardedEngineTest, FacadeRowsMatchSourceExactly) {
  const std::vector<SelectionQuery> probes = {
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota")),
                 Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry")),
                 Predicate::Eq("Model", Value::Cat("Civic"))}),  // empty
  };
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    auto facade = MakeFacade(shards, /*packed=*/false);
    ASSERT_EQ(facade->num_shards(), shards);
    for (const SelectionQuery& probe : probes) {
      auto expected = db_->ExecuteRows(probe);
      ASSERT_TRUE(expected.ok());
      auto actual = facade->ExecuteRows(probe);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << probe.ToString() << " over " << shards << " shards";
      EXPECT_TRUE(std::is_sorted(actual->begin(), actual->end()));
    }
  }
}

// Satellite regression: packed shard snapshots build per-shard posting
// lists, and the index-assisted probe path pins the exact row ids the
// unsharded plain source returns.
TEST_F(ShardedEngineTest, PackedShardsWithPostingsPinIdenticalRowIds) {
  auto facade = MakeFacade(/*shards=*/3, /*packed=*/true);
  for (size_t i = 0; i < facade->num_shards(); ++i) {
    EXPECT_TRUE(facade->shard(i).db->has_posting_lists()) << "shard " << i;
    EXPECT_TRUE(facade->shard(i).db->columnar()->packed()) << "shard " << i;
  }
  const std::vector<SelectionQuery> probes = {
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Honda"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Nissan")),
                 Predicate::Eq("Model", Value::Cat("Altima"))}),
  };
  for (const SelectionQuery& probe : probes) {
    auto expected = db_->ExecuteRows(probe);
    ASSERT_TRUE(expected.ok());
    auto actual = facade->ExecuteRows(probe);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(*actual, *expected) << probe.ToString();
  }
}

TEST_F(ShardedEngineTest, FacadeRejectsLikeQueriesWithSourceErrorText) {
  auto facade = MakeFacade(/*shards=*/2, /*packed=*/false);
  const SelectionQuery bad =
      MakeQuery({Predicate::Like("Model", Value::Cat("Camry"))});
  auto from_source = db_->ExecuteRows(bad);
  auto from_facade = facade->ExecuteRows(bad);
  ASSERT_FALSE(from_source.ok());
  ASSERT_FALSE(from_facade.ok());
  EXPECT_EQ(from_facade.status().ToString(), from_source.status().ToString());
}

TEST_F(ShardedEngineTest, FacadeAccountsProbesLikeTheSource) {
  auto facade = MakeFacade(/*shards=*/3, /*packed=*/false);
  const SelectionQuery probe =
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))});
  auto rows = facade->ExecuteRows(probe);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(facade->stats().queries_issued.load(), 1u);
  EXPECT_EQ(facade->stats().tuples_returned.load(), rows->size());
  // Per-shard accounting covers the whole row space and sums to the probe.
  const std::vector<ShardProbeSnapshot> shards = facade->ShardStats();
  ASSERT_EQ(shards.size(), 3u);
  uint64_t shard_tuples = 0;
  for (const ShardProbeSnapshot& s : shards) {
    EXPECT_EQ(s.queries_issued, 1u) << "shard " << s.shard;
    shard_tuples += s.tuples_returned;
  }
  EXPECT_EQ(shard_tuples, rows->size());
}

// The property: for every (shards, threads, snapshot mode) configuration,
// answers, similarity scores, and probe-accounting totals are bit-identical
// to a serial single-shard engine. Probe coalescing (on by default) makes
// even the stats deterministic under the parallel fan-out: each distinct
// probe key is scanned exactly once per cache residency.
void ExpectShardedMatchesSerial(const WebDatabase& db,
                                const MinedKnowledge& knowledge,
                                const AimqOptions& base_options,
                                size_t num_shards, size_t num_threads,
                                bool packed,
                                const std::vector<ImpreciseQuery>& queries =
                                    TestQueries()) {
  AimqOptions serial = base_options;
  serial.num_threads = 1;
  AimqEngine reference(&db, knowledge, serial);

  AimqOptions eopts = base_options;
  eopts.num_threads = num_threads;
  ShardedEngineOptions sharding;
  sharding.num_shards = num_shards;
  sharding.packed_shards = packed;
  auto live = LiveEngine::Create(&db, knowledge, LiveOptions{eopts, sharding});
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const std::shared_ptr<const ServingVersion> version = (*live)->Acquire();
  ASSERT_TRUE(version->shard_build_status.ok())
      << version->shard_build_status.ToString();
  ASSERT_EQ(version->facade != nullptr ? version->facade->num_shards() : 1,
            num_shards);
  AimqEngine& sharded = *version->engine;

  for (const ImpreciseQuery& query : queries) {
    RelaxationStats want_stats;
    auto want = reference.Answer(query, RelaxationStrategy::kGuided,
                                 &want_stats);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    RelaxationStats got_stats;
    auto got = sharded.Answer(query, RelaxationStrategy::kGuided, &got_stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].tuple, (*want)[i].tuple) << "answer " << i;
      EXPECT_EQ((*got)[i].similarity, (*want)[i].similarity) << "answer " << i;
    }
    EXPECT_EQ(got_stats.queries_issued.load(), want_stats.queries_issued.load());
    EXPECT_EQ(got_stats.tuples_extracted.load(),
              want_stats.tuples_extracted.load());
    EXPECT_EQ(got_stats.tuples_relevant.load(),
              want_stats.tuples_relevant.load());
    EXPECT_EQ(got_stats.cache_hits.load(), want_stats.cache_hits.load());
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalAcrossShardAndThreadCounts) {
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, shards,
                                 threads, /*packed=*/false);
    }
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalWithPackedShards) {
  for (size_t shards : {2u, 3u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, shards,
                                 threads, /*packed=*/true);
    }
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalUnderForcedScalarIsa) {
  // The serial reference inside runs under the same forced tier; the fixture
  // knowledge was mined at native. Scoring is ISA-invariant (the kernel
  // equivalence contract), so answers must not move.
  ScopedIsa scalar("scalar");
  ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, /*num_shards=*/3,
                             /*num_threads=*/4, /*packed=*/false);
}

// Base-set trimming keeps the base_set_limit best base tuples by (score
// desc, row asc). Here the base set outgrows the limit, its scores tie in a
// few large groups whose rows span every shard boundary, and the cut falls
// past the first boundary: which tied rows survive is decided by row-id
// order across shards. Sharded answers must still match the serial
// unsharded engine bit for bit.
TEST_F(ShardedEngineTest, TiedBaseSetTrimAcrossShardBoundariesMatchesSerial) {
  CarDbSpec spec;
  spec.num_tuples = 600;
  spec.seed = 11;
  const Relation generated = CarDbGenerator(spec).Generate();
  const Schema& schema = generated.schema();
  const size_t make = *schema.IndexOf("Make");
  const size_t model = *schema.IndexOf("Model");
  const size_t price = *schema.IndexOf("Price");
  // Every tenth row becomes a Camry at one of three prices, so Camrys tie
  // in three price groups spread evenly over the whole row space.
  Relation planted(schema);
  for (size_t row = 0; row < generated.NumTuples(); ++row) {
    Tuple t = generated.tuple(row);
    if (row % 10 == 3) {
      t.At(make) = Value::Cat("Toyota");
      t.At(model) = Value::Cat("Camry");
      t.At(price) = Value::Num(9000.0 + 1000.0 * static_cast<double>(
                                                     (row / 10) % 3));
    }
    planted.AppendUnchecked(std::move(t));
  }
  WebDatabase db("CarDB", std::move(planted));
  AimqOptions options = *options_;
  options.base_set_limit = 40;
  auto knowledge = BuildKnowledge(db, options);
  ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();

  // Binding only Model, every Camry ties; the kept rows reach past the
  // first boundary of both 3 shards (row 200) and 4 shards (row 150).
  auto camrys =
      db.ExecuteRows(MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}));
  ASSERT_TRUE(camrys.ok());
  ASSERT_GT(camrys->size(), options.base_set_limit);
  ASSERT_GE((*camrys)[options.base_set_limit - 1], 200u);

  std::vector<ImpreciseQuery> queries(2);
  queries[0].Bind("Model", Value::Cat("Camry"));
  // No price ends in 50, so the base query generalizes and its answers
  // tie within each price group.
  queries[1].Bind("Model", Value::Cat("Camry"));
  queries[1].Bind("Price", Value::Num(10050));

  for (size_t shards : {1u, 3u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ExpectShardedMatchesSerial(db, *knowledge, options, shards, threads,
                                 /*packed=*/false, queries);
    }
  }
}

}  // namespace
}  // namespace aimq
