// Wire-protocol encoding: Status must round-trip losslessly (code, message,
// context) through its JSON form — a deadline error raised deep in the
// engine reads identically on the far side of the socket.

#include "service/wire.h"

#include <gtest/gtest.h>

#include "relation/schema.h"

namespace aimq {
namespace {

TEST(WireStatusTest, EveryCodeRoundTripsLosslessly) {
  struct Case {
    Status status;
  };
  const Case kCases[] = {
      {Status::OK()},
      {Status::InvalidArgument("bad query")},
      {Status::NotFound("no such attribute")},
      {Status::OutOfRange("index 9")},
      {Status::AlreadyExists("duplicate")},
      {Status::FailedPrecondition("not started")},
      {Status::IOError("socket closed")},
      {Status::Unimplemented("hybrid ops")},
      {Status::Internal("corrupt state")},
      {Status::Cancelled("client went away")},
      {Status::DeadlineExceeded("deadline expired")
           .WithContext("relaxation fan-out")},
      {Status::Unavailable("queue full").WithContext("queue_depth=64")},
  };
  for (const Case& c : kCases) {
    const Json encoded = StatusToJson(c.status);
    // The wire form must survive an actual serialize/parse cycle, not just
    // an in-memory copy.
    auto reparsed = Json::Parse(encoded.Dump());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    Status decoded;
    ASSERT_TRUE(StatusFromJson(*reparsed, &decoded).ok());
    EXPECT_EQ(decoded, c.status) << c.status.ToString();
  }
}

TEST(WireStatusTest, MessageWithQuotesAndNewlinesSurvives) {
  const Status original =
      Status::InvalidArgument("expected '\"' got\n\ttab").WithContext("L1\\c2");
  auto reparsed = Json::Parse(StatusToJson(original).Dump());
  ASSERT_TRUE(reparsed.ok());
  Status decoded;
  ASSERT_TRUE(StatusFromJson(*reparsed, &decoded).ok());
  EXPECT_EQ(decoded, original);
}

TEST(WireStatusTest, UnknownCodeNameIsRejected) {
  auto json = Json::Parse(R"js({"code":"NoSuchCode","message":"x"})js");
  ASSERT_TRUE(json.ok());
  Status decoded;
  Status parse = StatusFromJson(*json, &decoded);
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.code(), StatusCode::kInvalidArgument);
}

TEST(WireStatusTest, NonObjectIsRejected) {
  Status decoded;
  EXPECT_FALSE(StatusFromJson(Json::Str("Ok"), &decoded).ok());
  EXPECT_FALSE(StatusFromJson(Json::Arr(), &decoded).ok());
}

Schema CarSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric}})
      .ValueOrDie();
}

TEST(WireTupleTest, EncodesValuesBySchemaOrderAndKind) {
  Schema s = CarSchema();
  Tuple t({Value::Cat("Toyota"), Value::Cat("Camry"), Value::Num(8500)});
  const Json j = TupleToJson(s, t);
  EXPECT_EQ(j.Dump(),
            R"js({"Make":"Toyota","Model":"Camry","Price":8500})js");
}

TEST(WireTupleTest, NullValuesEncodeAsJsonNull) {
  Schema s = CarSchema();
  Tuple t({Value::Cat("Ford"), Value(), Value::Num(100)});
  const Json j = TupleToJson(s, t);
  EXPECT_EQ(j.Dump(), R"js({"Make":"Ford","Model":null,"Price":100})js");
}

TEST(WireTupleTest, RankedAnswerCarriesSimilarity) {
  Schema s = CarSchema();
  RankedAnswer a;
  a.tuple = Tuple({Value::Cat("Toyota"), Value::Cat("Camry"),
                   Value::Num(8500)});
  a.similarity = 0.75;
  const Json j = RankedAnswerToJson(s, a);
  const Json* sim = j.Find("similarity");
  ASSERT_NE(sim, nullptr);
  EXPECT_DOUBLE_EQ(sim->AsNum(), 0.75);
  ASSERT_NE(j.Find("tuple"), nullptr);
}

TEST(WireRequestTest, ParsesQueryRequest) {
  auto req = ParseWireRequest(
      R"js({"op":"query","q":"Q(Model like 'Camry')","deadline_ms":250,"id":7})js");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, WireRequest::Op::kQuery);
  EXPECT_EQ(req->query_text, "Q(Model like 'Camry')");
  EXPECT_EQ(req->deadline_ms, 250u);
  EXPECT_TRUE(req->has_id);
  EXPECT_DOUBLE_EQ(req->id, 7.0);
}

TEST(WireRequestTest, ParsesPingAndStats) {
  auto ping = ParseWireRequest(R"js({"op":"ping"})js");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->op, WireRequest::Op::kPing);
  EXPECT_FALSE(ping->has_id);
  // The stats op is retired ({"op":"metrics"} serves the registry).
  auto stats = ParseWireRequest(R"js({"op":"stats"})js");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, ParsesMetricsOp) {
  auto req = ParseWireRequest(R"js({"op":"metrics","id":9})js");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, WireRequest::Op::kMetrics);
  EXPECT_TRUE(req->has_id);
  EXPECT_DOUBLE_EQ(req->id, 9.0);
}

TEST(WireRequestTest, ParsesOptionalRequestId) {
  auto req = ParseWireRequest(
      R"js({"op":"query","q":"Q(Model like 'Camry')","request_id":42})js");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->request_id, 42u);
  auto without = ParseWireRequest(
      R"js({"op":"query","q":"Q(Model like 'Camry')"})js");
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->request_id, 0u);  // 0 = service-assigned
  EXPECT_FALSE(ParseWireRequest(
                   R"js({"op":"query","q":"x","request_id":-1})js")
                   .ok());
  EXPECT_FALSE(ParseWireRequest(
                   R"js({"op":"query","q":"x","request_id":"abc"})js")
                   .ok());
}

TEST(WireRequestTest, RejectsMalformedRequests) {
  const char* kBad[] = {
      "",                                   // empty line
      "not json",                           // not JSON at all
      "[1,2]",                              // not an object
      R"js({"q":"Q(Model like x)"})js",         // missing op
      R"js({"op":"flush"})js",                  // unknown op
      R"js({"op":"query"})js",                  // query without q
      R"js({"op":"query","q":"x","deadline_ms":-5})js",  // negative deadline
      R"js({"op":"query","q":"x","id":"seven"})js",      // non-numeric id
  };
  for (const char* line : kBad) {
    EXPECT_FALSE(ParseWireRequest(line).ok()) << line;
  }
}

TEST(WireRequestTest, ErrorResponseEchoesId) {
  auto req =
      ParseWireRequest(R"js({"op":"query","q":"Q(Bogus like x)","id":3})js");
  ASSERT_TRUE(req.ok());
  const Json out =
      MakeErrorResponse(*req, Status::NotFound("unknown attribute Bogus"));
  EXPECT_EQ(
      out.Dump(),
      R"js({"id":3,"ok":false,"status":{"code":"NotFound","message":"unknown attribute Bogus"}})js");
}

}  // namespace
}  // namespace aimq
