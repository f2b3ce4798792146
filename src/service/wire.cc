#include "service/wire.h"

namespace aimq {

Json StatusToJson(const Status& status) {
  Json out = Json::Obj();
  out.Set("code", Json::Str(StatusCodeName(status.code())));
  if (!status.message().empty()) {
    out.Set("message", Json::Str(status.message()));
  }
  if (!status.context().empty()) {
    out.Set("context", Json::Str(status.context()));
  }
  return out;
}

Status StatusFromJson(const Json& json, Status* decoded) {
  if (!json.is_object()) {
    return Status::InvalidArgument("status must be a JSON object");
  }
  AIMQ_ASSIGN_OR_RETURN(std::string code_name, json.GetStr("code"));
  AIMQ_ASSIGN_OR_RETURN(StatusCode code, StatusCodeFromName(code_name));
  if (code == StatusCode::kOk) {
    *decoded = Status::OK();
    return Status::OK();
  }
  std::string message;
  if (const Json* m = json.Find("message"); m != nullptr && m->is_string()) {
    message = m->AsStr();
  }
  Status out(code, std::move(message));
  if (const Json* c = json.Find("context"); c != nullptr && c->is_string()) {
    out = out.WithContext(c->AsStr());
  }
  *decoded = std::move(out);
  return Status::OK();
}

Json TupleToJson(const Schema& schema, const Tuple& tuple) {
  Json out = Json::Obj();
  for (size_t a = 0; a < tuple.Size() && a < schema.NumAttributes(); ++a) {
    const Value& v = tuple.At(a);
    Json encoded;
    if (v.is_numeric()) {
      encoded = Json::Num(v.AsNum());
    } else if (v.is_categorical()) {
      encoded = Json::Str(v.AsCat());
    }  // null stays Json::Null()
    out.Set(schema.attribute(a).name, std::move(encoded));
  }
  return out;
}

Json RankedAnswerToJson(const Schema& schema, const RankedAnswer& answer) {
  Json out = Json::Obj();
  out.Set("tuple", TupleToJson(schema, answer.tuple));
  out.Set("similarity", Json::Num(answer.similarity));
  return out;
}

Result<WireRequest> ParseWireRequest(const std::string& line) {
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) {
    return parsed.status().WithContext("request line");
  }
  const Json& json = *parsed;
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest req;
  AIMQ_ASSIGN_OR_RETURN(std::string op, json.GetStr("op"));
  if (op == "ping") {
    req.op = WireRequest::Op::kPing;
  } else if (op == "metrics") {
    req.op = WireRequest::Op::kMetrics;
  } else if (op == "query") {
    req.op = WireRequest::Op::kQuery;
    AIMQ_ASSIGN_OR_RETURN(req.query_text, json.GetStr("q"));
  } else if (op == "explain") {
    req.op = WireRequest::Op::kExplain;
    AIMQ_ASSIGN_OR_RETURN(req.query_text, json.GetStr("q"));
  } else if (op == "ingest") {
    req.op = WireRequest::Op::kIngest;
    const Json* rows = json.Find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return Status::InvalidArgument(
          "ingest requires a \"rows\" array of row objects");
    }
    req.rows = *rows;
  } else if (op == "refresh_knowledge") {
    req.op = WireRequest::Op::kRefreshKnowledge;
  } else {
    return Status::InvalidArgument("unknown op \"" + op + "\"");
  }
  if (const Json* d = json.Find("deadline_ms"); d != nullptr) {
    if (!d->is_number() || d->AsNum() < 0) {
      return Status::InvalidArgument("deadline_ms must be a number >= 0");
    }
    req.deadline_ms = static_cast<uint64_t>(d->AsNum());
  }
  if (const Json* rid = json.Find("request_id"); rid != nullptr) {
    if (!rid->is_number() || rid->AsNum() < 0) {
      return Status::InvalidArgument("request_id must be a number >= 0");
    }
    req.request_id = static_cast<uint64_t>(rid->AsNum());
  }
  if (const Json* id = json.Find("id"); id != nullptr) {
    if (!id->is_number()) {
      return Status::InvalidArgument("id must be a number");
    }
    req.has_id = true;
    req.id = id->AsNum();
  }
  if (const Json* t = json.Find("tenant"); t != nullptr) {
    if (!t->is_string()) {
      return Status::InvalidArgument("tenant must be a string");
    }
    req.tenant = t->AsStr();
  }
  return req;
}

Json MakeErrorResponse(const WireRequest& request, const Status& status) {
  Json out = Json::Obj();
  if (request.has_id) out.Set("id", Json::Num(request.id));
  out.Set("ok", Json::Bool(false));
  out.Set("status", StatusToJson(status));
  return out;
}

}  // namespace aimq
