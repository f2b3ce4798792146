// AimqServer over a real socket: the NDJSON wire protocol end to end,
// including error responses and shutdown with open connections.

#include "service/server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/cardb.h"
#include "service/wire.h"
#include "util/socket.h"
#include "util/stopwatch.h"

namespace aimq {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
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
    sopts.queue_depth = 16;
    service_ = new AimqService(db_, knowledge.TakeValue(), options, sopts);
    ASSERT_TRUE(service_->Start().ok());
    server_ = new AimqServer(service_, /*port=*/0);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
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

  // Opens a client connection; the fixture's fd is closed per test.
  static int Connect() {
    auto fd = TcpConnect("localhost", server_->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  // One request line out, one response line (parsed) back.
  static Json RoundTrip(int fd, LineReader* reader, const std::string& line) {
    EXPECT_TRUE(SendAll(fd, line + "\n").ok());
    auto response = reader->ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->has_value());
    auto json = Json::Parse(**response);
    EXPECT_TRUE(json.ok()) << json.status().ToString();
    return json.ok() ? json.TakeValue() : Json::Null();
  }

  // One HTTP GET against the wire port; returns every line (headers + body,
  // '\r' stripped) until the server closes the connection.
  static std::vector<std::string> HttpGet(int port, const std::string& path) {
    std::vector<std::string> lines;
    auto fd = TcpConnect("localhost", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return lines;
    EXPECT_TRUE(
        SendAll(*fd, "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n").ok());
    LineReader reader(*fd);
    for (;;) {
      auto line = reader.ReadLine();
      if (!line.ok() || !line->has_value()) break;  // Connection: close
      lines.push_back(**line);
    }
    CloseFd(*fd);
    return lines;
  }

  static bool HasLinePrefix(const std::vector<std::string>& lines,
                            const std::string& prefix) {
    for (const std::string& line : lines) {
      if (line.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  }

  static WebDatabase* db_;
  static AimqService* service_;
  static AimqServer* server_;
};

WebDatabase* ServerTest::db_ = nullptr;
AimqService* ServerTest::service_ = nullptr;
AimqServer* ServerTest::server_ = nullptr;

TEST_F(ServerTest, PingPongEchoesId) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const Json r = RoundTrip(fd, &reader, R"js({"op":"ping","id":42})js");
  EXPECT_EQ(r.Dump(), R"js({"id":42,"ok":true,"pong":true})js");
  CloseFd(fd);
}

TEST_F(ServerTest, QueryReturnsRankedAnswersOverTheWire) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const Json r =
      RoundTrip(fd, &reader, R"js({"op":"query","q":"Q(Model like 'Camry')"})js");
  auto ok = r.GetBool("ok");
  ASSERT_TRUE(ok.ok() && *ok) << r.Dump();
  auto truncated = r.GetBool("truncated");
  ASSERT_TRUE(truncated.ok());
  EXPECT_FALSE(*truncated);
  const Json* answers = r.Find("answers");
  ASSERT_NE(answers, nullptr);
  ASSERT_TRUE(answers->is_array());
  ASSERT_GT(answers->AsArr().size(), 0u);
  for (const Json& a : answers->AsArr()) {
    const Json* tuple = a.Find("tuple");
    ASSERT_NE(tuple, nullptr);
    // Every answer tuple carries the full CarDB schema.
    EXPECT_NE(tuple->Find("Model"), nullptr);
    EXPECT_TRUE(a.GetNum("similarity").ok());
  }
  // Answers arrive ranked (descending similarity).
  const auto& arr = answers->AsArr();
  for (size_t i = 1; i < arr.size(); ++i) {
    EXPECT_GE(*arr[i - 1].GetNum("similarity"), *arr[i].GetNum("similarity"));
  }
  CloseFd(fd);
}

TEST_F(ServerTest, StatsReflectsServedQueries) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  RoundTrip(fd, &reader, R"js({"op":"query","q":"Q(Model like 'Civic')"})js");
  // The retired stats op answers a typed unknown-op error in band...
  Json r = RoundTrip(fd, &reader, R"js({"op":"stats"})js");
  ASSERT_TRUE(r.GetBool("ok").ok()) << r.Dump();
  EXPECT_FALSE(*r.GetBool("ok"));
  ASSERT_NE(r.Find("status"), nullptr);
  Status decoded;
  ASSERT_TRUE(StatusFromJson(*r.Find("status"), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("unknown op"), std::string::npos)
      << decoded.ToString();
  // ...and the same connection then serves the registry snapshot.
  r = RoundTrip(fd, &reader, R"js({"op":"metrics"})js");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  const Json* metrics = r.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  auto completed = metrics->GetNum("aimq_requests_completed_total");
  ASSERT_TRUE(completed.ok());
  EXPECT_GE(*completed, 1.0);
  ASSERT_NE(metrics->Find("aimq_request_latency_seconds"), nullptr);
  CloseFd(fd);
}

TEST_F(ServerTest, ProtocolErrorsAnswerInBandAndKeepTheConnection) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  // Malformed JSON: in-band error, socket stays usable.
  Json r = RoundTrip(fd, &reader, "this is not json");
  auto ok = r.GetBool("ok");
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
  const Json* status_json = r.Find("status");
  ASSERT_NE(status_json, nullptr);
  Status decoded;
  ASSERT_TRUE(StatusFromJson(*status_json, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);

  // Unknown attribute: typed error with the id echoed.
  r = RoundTrip(fd, &reader,
                R"js({"op":"query","q":"Q(Bogus like 'x')","id":9})js");
  ASSERT_NE(r.Find("id"), nullptr);
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 9.0);
  ASSERT_TRUE(r.GetBool("ok").ok());
  EXPECT_FALSE(*r.GetBool("ok"));
  ASSERT_NE(r.Find("status"), nullptr);
  Status wire_status;
  ASSERT_TRUE(StatusFromJson(*r.Find("status"), &wire_status).ok());
  EXPECT_FALSE(wire_status.ok());

  // The connection survived both errors.
  r = RoundTrip(fd, &reader, R"js({"op":"ping"})js");
  EXPECT_EQ(r.Dump(), R"js({"ok":true,"pong":true})js");
  CloseFd(fd);
}

TEST_F(ServerTest, LinesFailingToParseEchoTheirId) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  // An unknown op and a query without q fail parsing after the id is read.
  Json r = RoundTrip(fd, &reader, R"js({"op":"nope","id":3})js");
  ASSERT_NE(r.Find("id"), nullptr) << r.Dump();
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 3.0);
  EXPECT_FALSE(*r.GetBool("ok"));
  r = RoundTrip(fd, &reader, R"js({"op":"query","id":4})js");
  ASSERT_NE(r.Find("id"), nullptr) << r.Dump();
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 4.0);
  EXPECT_FALSE(*r.GetBool("ok"));
  // A line that is not JSON has no id to echo.
  r = RoundTrip(fd, &reader, R"js(not json, "id":5)js");
  EXPECT_EQ(r.Find("id"), nullptr) << r.Dump();
  EXPECT_FALSE(*r.GetBool("ok"));
  CloseFd(fd);
}

TEST_F(ServerTest, QueryResponseCarriesRequestId) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  // Client-chosen correlation id round-trips.
  Json r = RoundTrip(
      fd, &reader,
      R"js({"op":"query","q":"Q(Model like 'Camry')","request_id":4242})js");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  ASSERT_NE(r.Find("request_id"), nullptr);
  EXPECT_DOUBLE_EQ(r.Find("request_id")->AsNum(), 4242.0);
  // Without one, the service assigns and reports a nonzero id.
  r = RoundTrip(fd, &reader,
                R"js({"op":"query","q":"Q(Model like 'Camry')"})js");
  ASSERT_NE(r.Find("request_id"), nullptr);
  EXPECT_GT(r.Find("request_id")->AsNum(), 0.0);
  CloseFd(fd);
}

TEST_F(ServerTest, MetricsOpAnswersSnapshot) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  RoundTrip(fd, &reader, R"js({"op":"query","q":"Q(Model like 'Civic')"})js");
  const Json r = RoundTrip(fd, &reader, R"js({"op":"metrics","id":5})js");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 5.0);
  const Json* metrics = r.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(*metrics->GetNum("aimq_requests_completed_total"), 1.0);
  const Json* relax = metrics->Find("aimq_phase_relax_seconds");
  ASSERT_NE(relax, nullptr);
  EXPECT_TRUE(relax->GetNum("p99").ok());
  const Json* hit_rate = metrics->Find("aimq_probe_cache_hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_TRUE(hit_rate->is_number());
  CloseFd(fd);
}

TEST_F(ServerTest, HttpMetricsServesPrometheusText) {
  // Serve at least one query first so histograms have samples.
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  RoundTrip(fd, &reader, R"js({"op":"query","q":"Q(Model like 'Camry')"})js");
  CloseFd(fd);

  const auto lines = HttpGet(server_->port(), "/metrics");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "HTTP/1.1 200 OK");
  EXPECT_TRUE(HasLinePrefix(lines, "Content-Type: text/plain; version=0.0.4"));
  EXPECT_TRUE(HasLinePrefix(lines, "Content-Length: "));
  for (const char* family :
       {"# TYPE aimq_requests_accepted_total counter",
        "# TYPE aimq_request_latency_seconds histogram",
        "# TYPE aimq_phase_relax_seconds histogram",
        "# TYPE aimq_probe_cache_hit_rate gauge"}) {
    EXPECT_TRUE(HasLinePrefix(lines, family)) << "missing: " << family;
  }
  bool accepted_nonzero = false;
  for (const std::string& line : lines) {
    const std::string name = "aimq_requests_accepted_total ";
    if (line.compare(0, name.size(), name) == 0) {
      accepted_nonzero = std::stod(line.substr(name.size())) >= 1.0;
    }
  }
  EXPECT_TRUE(accepted_nonzero);
}

TEST_F(ServerTest, HttpMetricsJsonAndUnknownPath) {
  const auto json_lines = HttpGet(server_->port(), "/metrics.json");
  ASSERT_FALSE(json_lines.empty());
  EXPECT_EQ(json_lines[0], "HTTP/1.1 200 OK");
  EXPECT_TRUE(HasLinePrefix(json_lines, "Content-Type: application/json"));
  // Body is the last line: one JSON document.
  auto parsed = Json::Parse(json_lines.back());
  ASSERT_TRUE(parsed.ok()) << json_lines.back();
  EXPECT_TRUE(parsed->GetNum("aimq_requests_accepted_total").ok());
  EXPECT_NE(parsed->Find("aimq_request_latency_seconds"), nullptr);

  const auto missing = HttpGet(server_->port(), "/nope");
  ASSERT_FALSE(missing.empty());
  EXPECT_EQ(missing[0], "HTTP/1.1 404 Not Found");

  // Tracing is off on the shared fixture, so /trace 404s.
  const auto trace = HttpGet(server_->port(), "/trace");
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0], "HTTP/1.1 404 Not Found");

  // NDJSON sessions still work after HTTP ones.
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const Json r = RoundTrip(fd, &reader, R"js({"op":"ping"})js");
  EXPECT_EQ(r.Dump(), R"js({"ok":true,"pong":true})js");
  CloseFd(fd);
}

TEST_F(ServerTest, HttpTraceServesChromeJsonWhenTracingEnabled) {
  // Dedicated traced server; the shared fixture keeps tracing off.
  AimqOptions options;
  options.collector.sample_size = 300;
  options.tsim = 0.4;
  options.num_threads = 2;
  auto knowledge = BuildKnowledge(*db_, options);
  ASSERT_TRUE(knowledge.ok());
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.enable_tracing = true;
  AimqService service(db_, knowledge.TakeValue(), options, sopts);
  ASSERT_TRUE(service.Start().ok());
  AimqServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  auto traced_fd = TcpConnect("localhost", server.port());
  ASSERT_TRUE(traced_fd.ok());
  LineReader reader(*traced_fd);
  RoundTrip(*traced_fd, &reader,
            R"js({"op":"query","q":"Q(Model like 'Camry')"})js");
  CloseFd(*traced_fd);

  const auto lines = HttpGet(server.port(), "/trace");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "HTTP/1.1 200 OK");
  auto parsed = Json::Parse(lines.back());
  ASSERT_TRUE(parsed.ok()) << lines.back();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->AsArr().empty());

  server.Stop();
  service.Stop();
}

TEST_F(ServerTest, StopWithIdleConnectionDoesNotHang) {
  // A dedicated server so Stop() here cannot disturb the shared fixture.
  ServiceOptions sopts;
  sopts.num_workers = 1;
  AimqOptions options;
  options.collector.sample_size = 300;
  options.tsim = 0.4;
  auto knowledge = BuildKnowledge(*db_, options);
  ASSERT_TRUE(knowledge.ok());
  AimqService service(db_, knowledge.TakeValue(), options, sopts);
  ASSERT_TRUE(service.Start().ok());
  AimqServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  auto fd = TcpConnect("localhost", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  LineReader reader(*fd);
  // Handshake once so the session thread is definitely up.
  EXPECT_TRUE(SendAll(*fd, "{\"op\":\"ping\"}\n").ok());
  ASSERT_TRUE(reader.ReadLine().ok());

  Stopwatch watch;
  server.Stop();  // must unblock the idle session's read
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  // The peer observes the shutdown as EOF (or a reset error).
  auto eof = reader.ReadLine();
  if (eof.ok()) {
    EXPECT_FALSE(eof->has_value());
  }
  CloseFd(*fd);
  service.Stop();
}

}  // namespace
}  // namespace aimq
