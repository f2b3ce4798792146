#include "webdb/probe_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "util/lru.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace aimq {
namespace {

Schema TwoColumnSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical}})
      .ValueOrDie();
}

WebDatabase MakeDb() {
  Relation data(TwoColumnSchema());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Toyota"), Value::Cat("Camry")})).ok());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Toyota"), Value::Cat("Corolla")})).ok());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Honda"), Value::Cat("Civic")})).ok());
  return WebDatabase("ToyDB", std::move(data));
}

SelectionQuery MakeQuery(const std::string& make) {
  return SelectionQuery({Predicate::Eq("Make", Value::Cat(make))});
}

TEST(ProbeCacheTest, MissProbesThenHitSparesTheSource) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);

  bool hit = true;
  auto first = cache.Execute(db, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(first->size(), 2u);
  EXPECT_EQ(db.stats().queries_issued, 1u);

  auto second = cache.Execute(db, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(second->size(), 2u);
  // The source was not probed again.
  EXPECT_EQ(db.stats().queries_issued, 1u);
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*second)[i]);
  }

  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ProbeCacheTest, EquivalentQueriesShareOneEntry) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);

  SelectionQuery forward({Predicate::Eq("Make", Value::Cat("Toyota")),
                          Predicate::Eq("Model", Value::Cat("Camry"))});
  SelectionQuery reversed({Predicate::Eq("Model", Value::Cat("Camry")),
                           Predicate::Eq("Make", Value::Cat("Toyota"))});

  ASSERT_TRUE(cache.Execute(db, forward).ok());
  bool hit = false;
  auto answers = cache.Execute(db, reversed, &hit);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(answers->size(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(db.stats().queries_issued, 1u);
}

TEST(ProbeCacheTest, DistinctQueriesDoNotCollide) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  bool hit = true;
  auto honda = cache.Execute(db, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(honda.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(honda->size(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProbeCacheTest, LruEvictionDropsTheColdestEntry) {
  WebDatabase db = MakeDb();
  ProbeCache cache(2);

  SelectionQuery toyota = MakeQuery("Toyota");
  SelectionQuery honda = MakeQuery("Honda");
  SelectionQuery camry({Predicate::Eq("Model", Value::Cat("Camry"))});

  ASSERT_TRUE(cache.Execute(db, toyota).ok());  // LRU order: [toyota]
  ASSERT_TRUE(cache.Execute(db, honda).ok());   // [honda, toyota]
  ASSERT_TRUE(cache.Execute(db, toyota).ok());  // refresh: [toyota, honda]
  ASSERT_TRUE(cache.Execute(db, camry).ok());   // evicts honda
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(db, toyota));
  EXPECT_TRUE(cache.Contains(db, camry));
  EXPECT_FALSE(cache.Contains(db, honda));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted query must be re-probed.
  const uint64_t probes_before = db.stats().queries_issued;
  bool hit = true;
  ASSERT_TRUE(cache.Execute(db, honda, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(db.stats().queries_issued, probes_before + 1);
}

TEST(ProbeCacheTest, ZeroCapacityIsAPassThrough) {
  WebDatabase db = MakeDb();
  ProbeCache cache(0);
  bool hit = true;
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota"), &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota"), &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(db.stats().queries_issued, 2u);
}

TEST(ProbeCacheTest, ErrorsAreNotCached) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  SelectionQuery bad({Predicate::Eq("Nope", Value::Cat("x"))});
  EXPECT_FALSE(cache.Execute(db, bad).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProbeCacheTest, ClearResetsEntriesAndCounters) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Wraps the snapshot of \p base extended by \p delta as a new source at
// \p version (what live ingest's publish does).
WebDatabase ExtendDb(const WebDatabase& base, const std::vector<Tuple>& delta,
                     uint64_t version) {
  auto extended = ColumnarRelation::Extend(*base.columnar(), delta, version);
  EXPECT_TRUE(extended.ok());
  return WebDatabase(base.name(), *extended);
}

TEST(ProbeCacheTest, EvictVersionsBelowDropsOnlySupersededEntries) {
  WebDatabase v0 = MakeDb();
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Ford"), Value::Cat("Focus")})}, 1);
  ProbeCache cache(8);

  ASSERT_TRUE(cache.Execute(v0, MakeQuery("Toyota")).ok());
  ASSERT_TRUE(cache.Execute(v0, MakeQuery("Honda")).ok());
  ASSERT_TRUE(cache.Execute(v1, MakeQuery("Ford")).ok());
  ASSERT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.EvictVersionsBelow(1), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains(v0, MakeQuery("Toyota")));
  EXPECT_FALSE(cache.Contains(v0, MakeQuery("Honda")));
  EXPECT_TRUE(cache.Contains(v1, MakeQuery("Ford")));

  // Aging is accounted separately from LRU pressure.
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.version_evictions, 2u);
  EXPECT_EQ(stats.evictions, 0u);

  // Idempotent once the old version is gone.
  EXPECT_EQ(cache.EvictVersionsBelow(1), 0u);
  EXPECT_EQ(cache.stats().version_evictions, 2u);
}

TEST(ProbeCacheTest, StaleVersionEntriesNeverAnswerNewVersionProbes) {
  WebDatabase v0 = MakeDb();
  ProbeCache cache(8);
  auto old_rows = cache.ExecuteRows(v0, MakeQuery("Toyota"));
  ASSERT_TRUE(old_rows.ok());
  ASSERT_EQ(old_rows->size(), 2u);

  // Same logical query against the extended snapshot: the cached v0 answer
  // must not be served even though it was never explicitly evicted — the
  // key embeds the snapshot version.
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Toyota"), Value::Cat("Prius")})}, 1);
  bool hit = true;
  auto new_rows = cache.ExecuteRows(v1, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(new_rows->size(), 3u);
}

TEST(LruCacheTest, PutReturnsWhatItDisplacesAndKeepsLruOrder) {
  LruCache<std::string, int> lru(3);
  EXPECT_FALSE(lru.Put("a", 1).has_value());
  EXPECT_FALSE(lru.Put("b", 2).has_value());
  EXPECT_FALSE(lru.Put("c", 3).has_value());
  ASSERT_NE(lru.Get("a"), nullptr);  // order: a, c, b

  // Full: the coldest entry's nodes take the new, longer key.
  EXPECT_EQ(lru.Put("a key longer than any evicted one", 4), 2);
  EXPECT_EQ(lru.Peek("b"), nullptr);
  EXPECT_EQ(lru.evictions(), 1u);

  EXPECT_EQ(lru.Put("a", 5), 1);  // overwrite: order a, long, c
  EXPECT_EQ(*lru.Peek("a"), 5);
  EXPECT_EQ(lru.Put("d", 6), 3);  // evicts c: order d, a, long
  EXPECT_EQ(lru.evictions(), 2u);
  EXPECT_EQ(lru.Put("e", 7), 4);  // evicts the recycled long key
  EXPECT_EQ(lru.Peek("a key longer than any evicted one"), nullptr);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(*lru.Get("d"), 6);
  EXPECT_EQ(*lru.Get("e"), 7);
  EXPECT_EQ(*lru.Get("a"), 5);

  ASSERT_TRUE(lru.Erase("d"));
  EXPECT_FALSE(lru.Put("f", 8).has_value());  // room again: nothing evicted
  EXPECT_EQ(lru.evictions(), 3u);

  LruCache<std::string, int> none(0);
  EXPECT_EQ(none.Put("a", 9), 9);  // dropped: handed straight back
  EXPECT_EQ(none.size(), 0u);
}

TEST(ProbeCacheTest, SerialStripedCacheIsExactLru) {
  // The striped cache against a single reference LruCache of the same
  // capacity, driven by one thread through one seeded lookup sequence:
  // global recency stamps must make it evict exactly the same keys.
  constexpr size_t kCapacity = 8;
  constexpr size_t kKeys = 64;
  Relation data(TwoColumnSchema());
  for (size_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(data.Append(Tuple({Value::Cat("Make" + std::to_string(k)),
                                   Value::Cat("M")}))
                    .ok());
  }
  const WebDatabase db("KeyDB", std::move(data));
  std::vector<SelectionQuery> queries;
  for (size_t k = 0; k < kKeys; ++k) {
    queries.push_back(MakeQuery("Make" + std::to_string(k)));
  }

  ProbeCache cache(kCapacity);
  LruCache<size_t, size_t> reference(kCapacity);
  uint64_t hits = 0, misses = 0;
  Rng rng(20260);
  for (size_t step = 0; step < 10000; ++step) {
    // Skewed toward a few hot keys, so both hits and evictions are common.
    const size_t k = rng.Bernoulli(0.5) ? rng.Uniform(kCapacity + 2)
                                        : rng.Uniform(kKeys);
    bool hit = false;
    auto rows = cache.ExecuteRows(db, queries[k], &hit);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    const bool want_hit = reference.Get(k) != nullptr;
    if (want_hit) {
      ++hits;
    } else {
      ++misses;
      reference.Put(k, k);
    }
    ASSERT_EQ(hit, want_hit) << "step " << step;
    const ProbeCacheStats stats = cache.stats();
    ASSERT_EQ(stats.hits, hits) << "step " << step;
    ASSERT_EQ(stats.misses, misses) << "step " << step;
    ASSERT_EQ(stats.evictions, reference.evictions()) << "step " << step;
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
    // The resident set is the same, so so is every evicted key.
    for (size_t key = 0; key < kKeys; ++key) {
      ASSERT_EQ(cache.Contains(db, queries[key]),
                reference.Peek(key) != nullptr)
          << "step " << step << " key " << key;
    }
  }
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(reference.evictions(), 1000u);
}

TEST(ProbeCacheTest, ConcurrentEvictionKeepsAnswersAndCounts) {
  WebDatabase db = MakeDb();
  ProbeCache cache(4);
  cache.EnableCoalescing(true);
  std::vector<std::string> makes{"Toyota", "Honda"};
  for (int i = 0; i < 10; ++i) makes.push_back("Absent" + std::to_string(i));
  const size_t kRounds = 2000;

  std::atomic<size_t> wrong_answers{0};
  ParallelFor(kRounds, 8, [&](size_t i) {
    const std::string& make = makes[(i * 7) % makes.size()];
    auto rows = cache.ExecuteRows(db, MakeQuery(make));
    const size_t expected = make == "Toyota" ? 2 : make == "Honda" ? 1 : 0;
    if (!rows.ok() || rows->size() != expected) ++wrong_answers;
  });
  EXPECT_EQ(wrong_answers.load(), 0u);

  // Coalescing probes a key at most once per residency, so every miss
  // inserts a new key, and each insert into the full cache evicts one.
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kRounds);
  EXPECT_EQ(stats.hits + stats.misses, kRounds);
  EXPECT_EQ(db.stats().queries_issued, stats.misses);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(stats.evictions, stats.misses - 4);
  EXPECT_EQ(cache.InFlightWaiters(), 0u);
}

TEST(ProbeCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  WebDatabase db = MakeDb();
  ProbeCache cache(16);
  const std::vector<std::string> makes{"Toyota", "Honda", "Toyota", "Honda"};
  const size_t kRounds = 400;

  std::atomic<size_t> wrong_answers{0};
  ParallelFor(kRounds, 8, [&](size_t i) {
    const std::string& make = makes[i % makes.size()];
    auto result = cache.Execute(db, MakeQuery(make));
    if (!result.ok()) {
      ++wrong_answers;
      return;
    }
    const size_t expected = make == "Toyota" ? 2 : 1;
    if (result->size() != expected) ++wrong_answers;
    for (const Tuple& t : *result) {
      if (t.At(0).AsCat() != make) ++wrong_answers;
    }
  });
  EXPECT_EQ(wrong_answers.load(), 0u);

  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kRounds);
  EXPECT_EQ(stats.hits + stats.misses, kRounds);
  // Every miss is one physical probe; racing first-misses may duplicate a
  // probe but never lose one, and steady state serves from the cache.
  EXPECT_EQ(db.stats().queries_issued, stats.misses);
  EXPECT_GE(stats.misses, 2u);
  EXPECT_GT(stats.hits, kRounds / 2);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace aimq
