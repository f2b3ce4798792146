// QueryProfile tests: the phase partition identity, dominant-phase
// attribution, JSON shape, the profile the service fills per request, the
// explain wire op end to end, and slow-log budget attribution.

#include "obs/query_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "datagen/cardb.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/socket.h"

namespace aimq {
namespace {

TEST(QueryProfileTest, FinishPhasesDerivesOtherAsRemainder) {
  obs::QueryProfile p;
  p.total_seconds = 1.0;
  p.queue_seconds = 0.1;
  p.base_set_seconds = 0.2;
  p.relax_seconds = 0.3;
  p.rank_seconds = 0.1;
  p.FinishPhases();
  EXPECT_NEAR(p.other_seconds, 0.3, 1e-12);
  EXPECT_NEAR(p.queue_seconds + p.base_set_seconds + p.relax_seconds +
                  p.rank_seconds + p.other_seconds,
              p.total_seconds, 1e-12);
}

TEST(QueryProfileTest, FinishPhasesStretchesTotalWhenTimersExceedWall) {
  // Sub-µs requests can have engine timers summing past the wall clock;
  // the identity must still hold, never a negative `other`.
  obs::QueryProfile p;
  p.total_seconds = 0.5;
  p.queue_seconds = 0.2;
  p.base_set_seconds = 0.2;
  p.relax_seconds = 0.2;
  p.FinishPhases();
  EXPECT_DOUBLE_EQ(p.other_seconds, 0.0);
  EXPECT_DOUBLE_EQ(p.total_seconds, 0.6);
}

TEST(QueryProfileTest, DominantPhaseNamesTheLargestShare) {
  obs::QueryProfile p;
  EXPECT_EQ(p.DominantPhase(), "none");
  p.total_seconds = 1.0;
  p.queue_seconds = 0.1;
  p.relax_seconds = 0.6;
  p.rank_seconds = 0.2;
  p.FinishPhases();
  EXPECT_EQ(p.DominantPhase(), "relax");
  p.queue_seconds = 0.9;
  p.relax_seconds = 0.05;
  p.rank_seconds = 0.0;
  p.total_seconds = 1.0;
  p.FinishPhases();
  EXPECT_EQ(p.DominantPhase(), "queue");
}

TEST(QueryProfileTest, ToJsonCarriesPhasesAndDeltas) {
  obs::QueryProfile p;
  p.total_seconds = 0.010;
  p.relax_seconds = 0.006;
  p.probes_issued = 12;
  p.cache_hits = 5;
  p.relax_depth = 3;
  p.shard_rows = {{0, 100}, {1, 80}};
  p.blocks_decoded = 7;
  p.coalesced_probes = 2;
  p.has_deltas = true;
  p.FinishPhases();
  const Json json = p.ToJson();
  EXPECT_EQ(json.Find("dominant_phase")->AsStr(), "relax");
  EXPECT_DOUBLE_EQ(json.Find("relax_depth")->AsNum(), 3.0);
  EXPECT_DOUBLE_EQ(json.Find("blocks_decoded")->AsNum(), 7.0);
  const Json* probes = json.Find("probes");
  ASSERT_NE(probes, nullptr);
  EXPECT_DOUBLE_EQ(probes->Find("issued")->AsNum(), 12.0);
  EXPECT_DOUBLE_EQ(probes->Find("coalesced")->AsNum(), 2.0);
  const Json* shards = json.Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_TRUE(shards->is_array());
}

TEST(WireExplainTest, ParseExplainOp) {
  WireRequest parsed;
  const Status status = ParseWireRequest(
      "{\"op\":\"explain\",\"q\":\"Q(Model like Camry)\",\"deadline_ms\":100,"
      "\"tenant\":\"acme\"}",
      &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed.op, WireRequest::Op::kExplain);
  EXPECT_EQ(parsed.query_text, "Q(Model like Camry)");
  EXPECT_EQ(parsed.deadline_ms, 100u);
  EXPECT_EQ(parsed.tenant, "acme");
  // Like query, explain requires "q".
  EXPECT_FALSE(ParseWireRequest("{\"op\":\"explain\"}", &parsed).ok());
}

class ExplainServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 23;
    db_ = new WebDatabase("CarDB", CarDbGenerator(spec).Generate());
    AimqOptions options;
    options.collector.sample_size = 300;
    options.tsim = 0.4;
    options.top_k = 5;
    options.num_threads = 2;
    auto knowledge = BuildKnowledge(*db_, options);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    ServiceOptions sopts;
    sopts.num_workers = 2;
    sopts.num_shards = 3;
    sopts.slow_query_ms = 1e-6;  // capture everything in the slow log
    service_ = new AimqService(db_, knowledge.TakeValue(), options, sopts);
    ASSERT_TRUE(service_->Start().ok());
    server_ = new AimqServer(service_, /*port=*/0);
    ASSERT_TRUE(server_->Start().ok());
  }
  static void TearDownTestSuite() {
    server_->Stop();
    service_->Stop();
    delete server_;
    delete service_;
    delete db_;
    server_ = nullptr;
    service_ = nullptr;
    db_ = nullptr;
  }

  static Json RoundTrip(const std::string& line) {
    auto fd = TcpConnect("localhost", server_->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return Json::Null();
    LineReader reader(*fd);
    EXPECT_TRUE(SendAll(*fd, line + "\n").ok());
    auto response = reader.ReadLine();
    CloseFd(*fd);
    EXPECT_TRUE(response.ok() && response->has_value());
    if (!response.ok() || !response->has_value()) return Json::Null();
    auto json = Json::Parse(**response);
    EXPECT_TRUE(json.ok()) << json.status().ToString();
    return json.ok() ? json.TakeValue() : Json::Null();
  }

  static WebDatabase* db_;
  static AimqService* service_;
  static AimqServer* server_;
};

WebDatabase* ExplainServiceTest::db_ = nullptr;
AimqService* ExplainServiceTest::service_ = nullptr;
AimqServer* ExplainServiceTest::server_ = nullptr;

TEST_F(ExplainServiceTest, EveryResponseCarriesAConsistentProfile) {
  ImpreciseQuery query;
  query.Bind("Make", Value::Cat("Toyota"));
  auto response = service_->Execute(query);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const obs::QueryProfile& p = response->profile;
  // The phase partition identity against the measured latency.
  EXPECT_NEAR(p.queue_seconds + p.base_set_seconds + p.relax_seconds +
                  p.rank_seconds + p.other_seconds,
              p.total_seconds, 1e-9);
  EXPECT_GE(p.total_seconds, response->queue_seconds);
  EXPECT_GT(p.probes_issued + p.cache_hits + p.deduped_probes, 0u);
  EXPECT_NE(p.DominantPhase(), "none");
  // Plain queries never carry cross-request deltas.
  EXPECT_FALSE(p.has_deltas);
  EXPECT_TRUE(p.shard_rows.empty());
}

TEST_F(ExplainServiceTest, ExplainOpReturnsProfileSummingToLatency) {
  const Json json = RoundTrip(
      "{\"op\":\"explain\",\"q\":\"Q(Make like Honda)\",\"id\":9}");
  ASSERT_TRUE(json.is_object());
  ASSERT_NE(json.Find("ok"), nullptr);
  EXPECT_TRUE(json.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(json.Find("id")->AsNum(), 9.0);
  ASSERT_NE(json.Find("answers"), nullptr);
  const Json* profile = json.Find("profile");
  ASSERT_NE(profile, nullptr) << json.Dump();
  const Json* phases = profile->Find("phases");
  ASSERT_NE(phases, nullptr);
  const double sum_ms =
      phases->Find("queue_ms")->AsNum() + phases->Find("base_set_ms")->AsNum() +
      phases->Find("relax_ms")->AsNum() + phases->Find("rank_ms")->AsNum() +
      phases->Find("other_ms")->AsNum();
  const double total_ms = profile->Find("total_ms")->AsNum();
  EXPECT_NEAR(sum_ms, total_ms, 1e-6 + total_ms * 1e-9);
  // total_ms is the request's measured latency (FinishPhases may stretch it
  // by clock granularity, never shrink it below elapsed engine time).
  EXPECT_GE(total_ms, 0.0);
  EXPECT_LE(std::abs(total_ms - json.Find("elapsed_ms")->AsNum()),
            1.0 + total_ms);
  // Sharded service: the explain handler filled per-shard row deltas.
  const Json* shards = profile->Find("shards");
  ASSERT_NE(shards, nullptr) << profile->Dump();
  EXPECT_TRUE(shards->is_array());
  ASSERT_NE(profile->Find("dominant_phase"), nullptr);
  ASSERT_NE(profile->Find("relax_depth"), nullptr);
}

TEST_F(ExplainServiceTest, PlainQueryOpCarriesNoProfile) {
  const Json json =
      RoundTrip("{\"op\":\"query\",\"q\":\"Q(Make like Honda)\"}");
  ASSERT_TRUE(json.is_object());
  EXPECT_TRUE(json.Find("ok")->AsBool());
  EXPECT_EQ(json.Find("profile"), nullptr);
}

TEST_F(ExplainServiceTest, SlowLogCarriesDepthAndBudgetAttribution) {
  ImpreciseQuery query;
  query.Bind("Make", Value::Cat("Toyota"));
  ASSERT_TRUE(service_->Execute(query).ok());
  const std::vector<Json> slow = service_->SlowQueries();
  ASSERT_FALSE(slow.empty());
  const Json& record = slow.back();
  ASSERT_NE(record.Find("relax_depth"), nullptr) << record.Dump();
  const Json* attribution = record.Find("budget_attribution");
  ASSERT_NE(attribution, nullptr);
  const std::string phase = attribution->AsStr();
  EXPECT_TRUE(phase == "queue" || phase == "base_set" || phase == "relax" ||
              phase == "rank" || phase == "other")
      << phase;
}

TEST_F(ExplainServiceTest, RelaxDepthFeedsServiceHistogram) {
  ImpreciseQuery query;
  query.Bind("Make", Value::Cat("Toyota"));
  ASSERT_TRUE(service_->Execute(query).ok());
  uint64_t total = 0;
  for (uint64_t n : service_->metrics().RelaxDepthSnapshot()) total += n;
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace aimq
