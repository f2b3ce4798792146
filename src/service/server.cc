#include "service/server.h"

#include <utility>

#include "query/parser.h"
#include "service/wire.h"
#include "util/socket.h"

namespace aimq {

AimqServer::~AimqServer() { Stop(); }

Status AimqServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  AIMQ_ASSIGN_OR_RETURN(listen_fd_, TcpListen(port_));
  auto bound = TcpBoundPort(listen_fd_);
  if (!bound.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return bound.status();
  }
  port_ = *bound;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AimqServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  if (listen_fd_ >= 0) {
    ShutdownFd(listen_fd_);  // unblocks the accept loop
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, thread] : sessions_) {
      ShutdownFd(fd);  // unblocks the session's blocking read
      to_join.push_back(std::move(thread));
    }
    sessions_.clear();
    for (std::thread& thread : finished_sessions_) {
      to_join.push_back(std::move(thread));
    }
    finished_sessions_.clear();
  }
  // A session inside a long service_->Execute() finishes that request
  // first: wire shutdown is graceful with respect to in-flight queries.
  for (std::thread& thread : to_join) {
    if (thread.joinable()) thread.join();
  }
}

void AimqServer::AcceptLoop() {
  for (;;) {
    auto accepted = TcpAccept(listen_fd_);
    if (!accepted.ok()) return;  // Cancelled by Stop(), or fatal
    const int fd = *accepted;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      CloseFd(fd);
      return;
    }
    sessions_.emplace(fd, std::thread([this, fd] { Session(fd); }));
  }
}

void AimqServer::Session(int fd) {
  LineReader reader(fd);
  bool first = true;
  for (;;) {
    auto line = reader.ReadLine();
    if (!line.ok() || !line->has_value()) break;  // error or peer closed
    if (first && line->value().compare(0, 4, "GET ") == 0) {
      // An HTTP request line can never be valid JSON, so sniffing the first
      // line lets Prometheus scrape the wire port directly.
      ServeHttp(fd, **line, &reader);
      break;  // Connection: close — HTTP sessions are one-shot
    }
    first = false;
    const std::string response = HandleLine(**line);
    if (!SendAll(fd, response + "\n").ok()) break;
  }
  // Deregister before closing so the accept loop can never observe a reused
  // fd number colliding with a stale session entry.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(fd);
    if (it != sessions_.end()) {
      finished_sessions_.push_back(std::move(it->second));
      sessions_.erase(it);
    }
  }
  CloseFd(fd);
}

std::string AimqServer::HandleIngest(const WireRequest& request) {
  const Schema& schema = service_->schema();
  std::vector<Tuple> rows;
  rows.reserve(request.rows.AsArr().size());
  for (const Json& row : request.rows.AsArr()) {
    if (!row.is_object()) {
      return MakeErrorResponse(
                 request,
                 Status::InvalidArgument("each ingest row must be an object"))
          .Dump();
    }
    std::vector<Value> values(schema.NumAttributes());
    for (size_t a = 0; a < schema.NumAttributes(); ++a) {
      const Attribute& attr = schema.attribute(a);
      const Json* v = row.Find(attr.name);
      if (v == nullptr || v->is_null()) continue;  // missing/null -> null
      if (attr.type == AttrType::kNumeric) {
        if (!v->is_number()) {
          return MakeErrorResponse(
                     request, Status::InvalidArgument(
                                  "attribute \"" + attr.name +
                                  "\" is numeric; got a non-number"))
              .Dump();
        }
        values[a] = Value::Num(v->AsNum());
      } else {
        if (!v->is_string()) {
          return MakeErrorResponse(
                     request, Status::InvalidArgument(
                                  "attribute \"" + attr.name +
                                  "\" is categorical; got a non-string"))
              .Dump();
        }
        values[a] = Value::Cat(v->AsStr());
      }
    }
    // Keys outside the schema are rejected rather than dropped: a typo'd
    // attribute name silently ingesting null would be hard to notice.
    for (const auto& [key, unused] : row.AsObj()) {
      if (!schema.Contains(key)) {
        return MakeErrorResponse(
                   request, Status::InvalidArgument(
                                "unknown attribute \"" + key + "\""))
            .Dump();
      }
    }
    rows.emplace_back(std::move(values));
  }
  const size_t accepted = rows.size();
  auto published = service_->Ingest(std::move(rows));
  if (!published.ok()) {
    return MakeErrorResponse(request, published.status()).Dump();
  }
  Json out = Json::Obj();
  if (request.has_id) out.Set("id", Json::Num(request.id));
  out.Set("ok", Json::Bool(true));
  out.Set("accepted", Json::Num(static_cast<double>(accepted)));
  out.Set("snapshot_version", Json::Num(static_cast<double>(*published)));
  return out.Dump();
}

std::string AimqServer::HandleLine(const std::string& line) {
  WireRequest request;
  if (Status parsed = ParseWireRequest(line, &request); !parsed.ok()) {
    return MakeErrorResponse(request, parsed).Dump();
  }
  switch (request.op) {
    case WireRequest::Op::kPing: {
      Json out = Json::Obj();
      if (request.has_id) out.Set("id", Json::Num(request.id));
      out.Set("ok", Json::Bool(true));
      out.Set("pong", Json::Bool(true));
      return out.Dump();
    }
    case WireRequest::Op::kMetrics: {
      Json out = Json::Obj();
      if (request.has_id) out.Set("id", Json::Num(request.id));
      out.Set("ok", Json::Bool(true));
      out.Set("metrics", service_->metrics_registry().JsonSnapshot());
      return out.Dump();
    }
    case WireRequest::Op::kIngest:
      return HandleIngest(request);
    case WireRequest::Op::kRefreshKnowledge: {
      auto refreshed = service_->RefreshKnowledge();
      if (!refreshed.ok()) {
        return MakeErrorResponse(request, refreshed.status()).Dump();
      }
      Json out = Json::Obj();
      if (request.has_id) out.Set("id", Json::Num(request.id));
      out.Set("ok", Json::Bool(true));
      out.Set("knowledge_version",
              Json::Num(static_cast<double>(*refreshed)));
      out.Set("snapshot_version",
              Json::Num(static_cast<double>(
                  service_->LiveStats().snapshot_version)));
      return out.Dump();
    }
    case WireRequest::Op::kQuery:
    case WireRequest::Op::kExplain:
      break;
  }
  const bool explain = request.op == WireRequest::Op::kExplain;
  QueryParser parser(&service_->schema());
  auto query = parser.ParseImprecise(request.query_text);
  if (!query.ok()) {
    return MakeErrorResponse(request, query.status()).Dump();
  }
  // Explain samples the cross-request subsystem counters around the call so
  // the profile can attribute rows per shard, blocks decoded, and coalesced
  // probes to this request. Deltas, not per-request counters: approximate
  // under concurrent traffic, exact on an idle service.
  std::vector<ShardProbeSnapshot> shards_before;
  uint64_t block_misses_before = 0;
  uint64_t coalesced_before = 0;
  if (explain) {
    shards_before = service_->ShardStats();
    for (const auto& [shard, stats] : service_->BlockStats()) {
      block_misses_before += stats.cache.misses;
    }
    if (const auto& cache = service_->probe_cache(); cache != nullptr) {
      coalesced_before = cache->stats().coalesced;
    }
  }
  auto response = service_->Execute(*query, request.deadline_ms,
                                    request.request_id, request.tenant);
  if (!response.ok()) {
    return MakeErrorResponse(request, response.status()).Dump();
  }
  Json out = Json::Obj();
  if (request.has_id) out.Set("id", Json::Num(request.id));
  out.Set("ok", Json::Bool(true));
  out.Set("request_id",
          Json::Num(static_cast<double>(response->request_id)));
  out.Set("truncated", Json::Bool(response->truncated));
  out.Set("elapsed_ms", Json::Num(response->total_seconds * 1e3));
  Json answers = Json::Arr();
  for (const RankedAnswer& a : response->answers) {
    answers.Push(RankedAnswerToJson(service_->schema(), a));
  }
  out.Set("answers", std::move(answers));
  if (explain) {
    obs::QueryProfile& profile = response->profile;
    const std::vector<ShardProbeSnapshot> shards_after =
        service_->ShardStats();
    for (size_t i = 0;
         i < shards_after.size() && i < shards_before.size(); ++i) {
      const uint64_t after = shards_after[i].tuples_returned;
      const uint64_t before = shards_before[i].tuples_returned;
      profile.shard_rows.emplace_back(shards_after[i].shard,
                                      after > before ? after - before : 0);
    }
    uint64_t block_misses_after = 0;
    for (const auto& [shard, stats] : service_->BlockStats()) {
      block_misses_after += stats.cache.misses;
    }
    profile.blocks_decoded = block_misses_after > block_misses_before
                                 ? block_misses_after - block_misses_before
                                 : 0;
    if (const auto& cache = service_->probe_cache(); cache != nullptr) {
      const uint64_t coalesced_after = cache->stats().coalesced;
      profile.coalesced_probes = coalesced_after > coalesced_before
                                     ? coalesced_after - coalesced_before
                                     : 0;
    }
    profile.has_deltas = true;
    out.Set("profile", profile.ToJson());
  }
  return out.Dump();
}

void AimqServer::ServeHttp(int fd, const std::string& request_line,
                           LineReader* reader) {
  // Drain the header block; scrape requests carry nothing we need.
  for (;;) {
    auto line = reader->ReadLine();
    if (!line.ok() || !line->has_value() || (*line)->empty()) break;
  }
  // "GET /path HTTP/1.1" -> "/path" (query strings ignored).
  std::string path = request_line.substr(4);
  if (const size_t sp = path.find(' '); sp != std::string::npos) {
    path.resize(sp);
  }
  if (const size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);
  }
  const char* status_line = "HTTP/1.1 200 OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    // The unified registry: service, probe cache, tenants, shards, block
    // stores, SIMD dispatch, and trace accounting through one collector.
    body = service_->metrics_registry().PrometheusText();
  } else if (path == "/metrics.json") {
    content_type = "application/json";
    body = service_->metrics_registry().JsonSnapshot().Dump() + "\n";
  } else if (path == "/trace") {
    if (service_->trace() == nullptr) {
      status_line = "HTTP/1.1 404 Not Found";
      content_type = "text/plain; charset=utf-8";
      body = "tracing disabled; start with ServiceOptions::enable_tracing\n";
    } else {
      content_type = "application/json";
      body = service_->ChromeTraceJson().Dump() + "\n";
    }
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found; endpoints: /metrics /metrics.json /trace\n";
  }
  std::string response = status_line;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  SendAll(fd, response);  // best effort; the session closes either way
}

}  // namespace aimq
