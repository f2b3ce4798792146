// service_throughput: replay a recorded query-log trace against the
// concurrent AimqService at a target arrival rate and report serving
// metrics — p50/p95/p99 latency, rejection rate, probe-cache hit rate,
// probe-coalescing activity.
//
// The bench is also a correctness harness: every accepted request's ranked
// answers are compared bit-for-bit against a serial (1-thread, cold-cache)
// reference engine; any divergence makes the process exit non-zero. Sharded
// runs (--shards=N) are held to the same bar: the sharded engine
// must reproduce the unsharded serial reference exactly. Run it under
// -DAIMQ_SANITIZE=thread to shake the serving layer's locking.
//
// Usage:
//   service_throughput [--queries=500] [--threads=8] [--qps=0]
//                      [--tuples=5000] [--queue-depth=256]
//                      [--deadline-ms=0] [--shards=1] [--packed-shards]
//                      [--zipf=0] [--shard-sweep=1,2,4,8]
//                      [--require-coalescing] [--json=<path>]
//
// --zipf=<s> resamples the workload by query popularity: the distinct
// queries of the base workload become a catalog ranked in first-seen order,
// and each replayed request draws query rank i with P(i) ~ 1/(i+1)^s
// (seeded, deterministic). Realistic serving traffic is exactly this shape,
// and it is what makes cross-query probe coalescing measurable: concurrent
// workers answering the same hot query park on one source scan.
//
// --shard-sweep=1,2,4,8 reruns the replay at each shard count and emits a
// "shard_scaling" array in the JSON document — the scaling curve CI archives.
//
// --require-coalescing exits non-zero unless the (zipf) replay observed >1
// coalesced probe per popular query — the regression gate for the
// coalescing path.
//
// --json=<path> additionally writes the run's metrics as one JSON document
// (latency percentiles, qps, cache hit rate, git sha) — the machine-readable
// baseline CI archives per commit.
//
// --qps=0 replays unpaced (as fast as admission control admits); a nonzero
// target paces submissions at that many requests per second. A nonzero
// --deadline-ms lets requests come back truncated; truncated responses are
// excluded from the bit-identical check (they are partial by design).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/service.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "workload/query_log.h"

using namespace aimq;

namespace {

struct BenchFlags {
  size_t queries = 500;
  size_t threads = 8;
  double qps = 0.0;
  size_t tuples = 5000;
  size_t queue_depth = 256;
  uint64_t deadline_ms = 0;
  size_t shards = 1;
  bool packed_shards = false;
  double zipf_s = 0.0;
  std::vector<size_t> shard_sweep;
  bool require_coalescing = false;
  std::string json_path;
};

// Synthesizes an imprecise workload the way users query a car listing site:
// mostly by model, sometimes with a price, sometimes make-only.
std::vector<ImpreciseQuery> MakeWorkload(const Relation& data, size_t count,
                                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick_row(0, data.NumTuples() - 1);
  std::uniform_int_distribution<int> pick_shape(0, 9);
  std::vector<ImpreciseQuery> workload;
  workload.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Tuple& row = data.tuple(pick_row(rng));
    ImpreciseQuery q;
    const int shape = pick_shape(rng);
    if (shape < 6) {  // Model like X
      q.Bind("Model", row.At(1));
    } else if (shape < 8) {  // Model + Price
      q.Bind("Model", row.At(1));
      q.Bind("Price", row.At(3));
    } else {  // Make like Y
      q.Bind("Make", row.At(0));
    }
    workload.push_back(std::move(q));
  }
  return workload;
}

// Resamples \p base under a Zipf(s) popularity law: the distinct queries,
// ranked in first-seen order, are drawn with P(rank i) ~ 1/(i+1)^s. Fully
// deterministic: seeded mt19937_64 + explicit inverse-CDF (no
// implementation-defined std distributions). \p popular_out counts the
// distinct queries sampled >= 5 times ("popular" for coalescing reporting).
std::vector<ImpreciseQuery> ZipfReplay(const std::vector<ImpreciseQuery>& base,
                                       double s, uint64_t seed,
                                       size_t* popular_out) {
  if (base.empty()) {
    if (popular_out != nullptr) *popular_out = 0;
    return {};
  }
  // Catalog: distinct queries in first-seen order.
  std::vector<const ImpreciseQuery*> catalog;
  std::map<std::string, size_t> seen;
  for (const ImpreciseQuery& q : base) {
    if (seen.emplace(q.ToString(), catalog.size()).second) {
      catalog.push_back(&q);
    }
  }
  std::vector<double> cdf(catalog.size());
  double total = 0.0;
  for (size_t i = 0; i < catalog.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  std::mt19937_64 rng(seed);
  std::vector<size_t> draws(catalog.size(), 0);
  std::vector<ImpreciseQuery> out;
  out.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    // 53-bit uniform in [0,1) straight from the (standardized) engine.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const double target = u * total;
    size_t lo = 0;
    size_t hi = cdf.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf[mid] <= target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    ++draws[lo];
    out.push_back(*catalog[lo]);
  }
  size_t popular = 0;
  for (size_t d : draws) {
    if (d >= 5) ++popular;
  }
  if (popular_out != nullptr) *popular_out = popular;
  return out;
}

bool SameAnswers(const std::vector<RankedAnswer>& a,
                 const std::vector<RankedAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tuple != b[i].tuple || a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

// One full replay of \p trace through an AimqService at \p num_shards.
struct ReplayResult {
  bool ok = false;  // replay ran (service started, no reference failures)
  size_t shards = 1;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t truncated = 0;
  size_t failed = 0;
  size_t compared = 0;
  size_t mismatches = 0;
  double replay_seconds = 0.0;
  double rejection_rate = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t coalesced = 0;
  // The unified registry's JSON snapshot at end of replay — every subsystem
  // counter (block cache, SIMD tiers, shards, tenants) archived alongside
  // the latency numbers in the CI baseline.
  Json metrics_snapshot = Json::Null();
  double qps() const {
    return replay_seconds > 0
               ? static_cast<double>(accepted) / replay_seconds
               : 0.0;
  }
};

ReplayResult RunReplay(
    const WebDatabase& db, const MinedKnowledge& knowledge,
    const AimqOptions& options, const BenchFlags& flags, size_t num_shards,
    const std::vector<ImpreciseQuery>& trace,
    const std::map<std::string, std::vector<RankedAnswer>>& expected) {
  ReplayResult result;
  result.shards = num_shards;

  ServiceOptions sopts;
  sopts.num_workers = flags.threads;
  sopts.queue_depth = flags.queue_depth;
  sopts.default_deadline_ms = flags.deadline_ms;
  sopts.num_shards = num_shards;
  sopts.packed_shards = flags.packed_shards;
  AimqService service(&db, knowledge, options, sopts);
  if (!service.shard_build_status().ok()) {
    std::fprintf(stderr, "shard build degraded: %s\n",
                 service.shard_build_status().ToString().c_str());
  }
  Status st = service.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return result;
  }

  struct Outcome {
    std::atomic<int> state{0};  // 0 pending, 1 ok, 2 failed, 3 truncated
    std::vector<RankedAnswer> answers;
  };
  std::vector<Outcome> outcomes(trace.size());
  std::atomic<size_t> rejected{0};

  Stopwatch replay_watch;
  const double interval = flags.qps > 0.0 ? 1.0 / flags.qps : 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (interval > 0.0) {
      const double next_send = static_cast<double>(i) * interval;
      const double now = replay_watch.ElapsedSeconds();
      if (next_send > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(next_send - now));
      }
    }
    Outcome* out = &outcomes[i];
    Status submit = service.Submit(trace[i], [out](Result<QueryResponse> r) {
      if (!r.ok()) {
        out->state.store(2, std::memory_order_release);
        return;
      }
      out->answers = std::move(r->answers);
      out->state.store(r->truncated ? 3 : 1, std::memory_order_release);
    });
    if (!submit.ok()) {
      ++rejected;
      out->state.store(-1, std::memory_order_release);
    }
  }
  service.Drain();
  result.replay_seconds = replay_watch.ElapsedSeconds();
  service.Stop();

  // Verify: every accepted, untruncated request must match the serial
  // reference bit for bit.
  for (size_t i = 0; i < trace.size(); ++i) {
    const int state = outcomes[i].state.load(std::memory_order_acquire);
    if (state == -1) continue;  // rejected at admission
    if (state == 2) {
      ++result.failed;
      continue;
    }
    if (state == 3) {
      ++result.truncated;
      continue;
    }
    ++result.compared;
    const auto it = expected.find(trace[i].ToString());
    if (it == expected.end() ||
        !SameAnswers(outcomes[i].answers, it->second)) {
      ++result.mismatches;
    }
  }

  const ServiceMetrics& m = service.metrics();
  result.accepted = static_cast<size_t>(m.accepted());
  result.rejected = rejected.load();
  result.rejection_rate = m.RejectionRate();
  result.p50_ms = m.latency().Percentile(0.50) * 1e3;
  result.p95_ms = m.latency().Percentile(0.95) * 1e3;
  result.p99_ms = m.latency().Percentile(0.99) * 1e3;
  result.queue_wait_p99_ms = m.queue_wait().Percentile(0.99) * 1e3;
  const auto& cache = service.probe_cache();
  if (cache != nullptr) {
    const ProbeCacheStats cstats = cache->stats();
    result.cache_hit_rate = cstats.HitRate();
    result.coalesced = cstats.coalesced;
  }
  result.metrics_snapshot = service.metrics_registry().JsonSnapshot();
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--queries=")) {
      flags.queries = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (StartsWith(arg, "--threads=")) {
      flags.threads = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (StartsWith(arg, "--qps=")) {
      flags.qps = std::atof(arg.c_str() + 6);
    } else if (StartsWith(arg, "--tuples=")) {
      flags.tuples = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (StartsWith(arg, "--queue-depth=")) {
      flags.queue_depth = std::strtoul(arg.c_str() + 14, nullptr, 10);
    } else if (StartsWith(arg, "--deadline-ms=")) {
      flags.deadline_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (StartsWith(arg, "--shards=")) {
      flags.shards = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg == "--packed-shards") {
      flags.packed_shards = true;
    } else if (StartsWith(arg, "--zipf=")) {
      flags.zipf_s = std::atof(arg.c_str() + 7);
    } else if (StartsWith(arg, "--shard-sweep=")) {
      const char* p = arg.c_str() + 14;
      while (*p != '\0') {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p) break;
        flags.shard_sweep.push_back(static_cast<size_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
    } else if (arg == "--require-coalescing") {
      flags.require_coalescing = true;
    } else if (StartsWith(arg, "--json=")) {
      flags.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (flags.shards == 0) flags.shards = 1;

  bench::PrintHeader("AIMQ service throughput");
  CarDbSpec spec;
  spec.num_tuples = flags.tuples;
  spec.seed = 2006;
  Relation data = CarDbGenerator(spec).Generate();
  WebDatabase db("CarDB", data);

  AimqOptions options;
  options.collector.sample_size = db.NumTuples() / 3;
  options.num_threads = 2;  // per-query fan-out; concurrency comes from pool
  auto knowledge = BuildKnowledge(db, options);
  if (!knowledge.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 knowledge.status().ToString().c_str());
    return 1;
  }

  // Record the workload through a QueryLog trace and replay the *trace*, so
  // the bench exercises the same log files a deployment would keep.
  std::vector<ImpreciseQuery> workload =
      MakeWorkload(data, flags.queries, /*seed=*/7);
  size_t popular_queries = 0;
  if (flags.zipf_s > 0.0) {
    workload = ZipfReplay(workload, flags.zipf_s, /*seed=*/13,
                          &popular_queries);
  }
  QueryLog log(&db.schema());
  log.EnableTrace(flags.queries);
  for (const ImpreciseQuery& q : workload) {
    Status st = log.Record(q);
    if (!st.ok()) {
      std::fprintf(stderr, "record failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::vector<ImpreciseQuery>& trace = log.trace();
  std::printf("workload: %zu queries over %zu tuples", trace.size(),
              db.NumTuples());
  if (flags.zipf_s > 0.0) {
    std::printf(" (zipf s=%.2f, %zu popular)", flags.zipf_s, popular_queries);
  }
  std::printf("\n");

  // Serial reference: one thread, no shared probe cache reuse across runs.
  AimqOptions serial_options = options;
  serial_options.num_threads = 1;
  AimqEngine reference(&db, *knowledge, serial_options);
  std::map<std::string, std::vector<RankedAnswer>> expected;
  {
    Stopwatch watch;
    for (const ImpreciseQuery& q : trace) {
      const std::string key = q.ToString();
      if (expected.count(key)) continue;
      auto answers = reference.Answer(q);
      if (!answers.ok()) {
        std::fprintf(stderr, "reference failed on %s: %s\n", key.c_str(),
                     answers.status().ToString().c_str());
        return 1;
      }
      expected.emplace(key, answers.TakeValue());
    }
    std::printf("serial reference: %zu distinct queries in %.2fs\n",
                expected.size(), watch.ElapsedSeconds());
  }

  // The primary run (flags.shards), plus one extra replay per sweep entry.
  ReplayResult main_run = RunReplay(db, *knowledge, options, flags,
                                    flags.shards, trace, expected);
  if (!main_run.ok) return 1;
  std::vector<ReplayResult> sweep;
  for (size_t count : flags.shard_sweep) {
    if (count == 0) continue;
    if (count == flags.shards) {
      sweep.push_back(main_run);
      continue;
    }
    std::printf("sweep: replaying at %zu shard%s\n", count,
                count == 1 ? "" : "s");
    ReplayResult r =
        RunReplay(db, *knowledge, options, flags, count, trace, expected);
    if (!r.ok) return 1;
    sweep.push_back(r);
  }

  std::printf("replayed %zu queries in %.2fs (%.1f accepted qps, target %s)\n",
              trace.size(), main_run.replay_seconds, main_run.qps(),
              flags.qps > 0 ? std::to_string(flags.qps).c_str() : "unpaced");
  std::vector<std::vector<std::string>> rows;
  char buf[64];
  auto fmt = [&buf](const char* f, double v) {
    std::snprintf(buf, sizeof(buf), f, v);
    return std::string(buf);
  };
  rows.push_back({"shards", std::to_string(main_run.shards)});
  rows.push_back({"accepted", std::to_string(main_run.accepted)});
  rows.push_back({"rejected", std::to_string(main_run.rejected)});
  rows.push_back({"rejection_rate", fmt("%.3f", main_run.rejection_rate)});
  rows.push_back({"truncated", std::to_string(main_run.truncated)});
  rows.push_back({"failed", std::to_string(main_run.failed)});
  rows.push_back({"p50_ms", fmt("%.2f", main_run.p50_ms)});
  rows.push_back({"p95_ms", fmt("%.2f", main_run.p95_ms)});
  rows.push_back({"p99_ms", fmt("%.2f", main_run.p99_ms)});
  rows.push_back({"queue_wait_p99_ms", fmt("%.2f", main_run.queue_wait_p99_ms)});
  rows.push_back({"cache_hit_rate", fmt("%.3f", main_run.cache_hit_rate)});
  rows.push_back({"coalesced_probes", std::to_string(main_run.coalesced)});
  if (flags.zipf_s > 0.0) {
    rows.push_back({"popular_queries", std::to_string(popular_queries)});
    rows.push_back(
        {"coalesced_per_popular",
         fmt("%.2f", popular_queries > 0
                         ? static_cast<double>(main_run.coalesced) /
                               static_cast<double>(popular_queries)
                         : 0.0)});
  }
  rows.push_back({"verified_vs_serial", std::to_string(main_run.compared)});
  rows.push_back({"mismatches", std::to_string(main_run.mismatches)});
  bench::PrintTable({"metric", "value"}, rows);
  for (const ReplayResult& r : sweep) {
    std::printf(
        "shards=%zu: p50=%.2fms p95=%.2fms p99=%.2fms qps=%.1f "
        "reject=%.3f hit=%.3f coalesced=%llu\n",
        r.shards, r.p50_ms, r.p95_ms, r.p99_ms, r.qps(), r.rejection_rate,
        r.cache_hit_rate, static_cast<unsigned long long>(r.coalesced));
  }

  if (!flags.json_path.empty()) {
    Json doc = Json::Obj();
    doc.Set("bench", Json::Str("service_throughput"));
    doc.Set("git_sha", Json::Str(bench::GitSha()));
    doc.Set("queries", Json::Num(static_cast<double>(trace.size())));
    doc.Set("tuples", Json::Num(static_cast<double>(flags.tuples)));
    doc.Set("threads", Json::Num(static_cast<double>(flags.threads)));
    doc.Set("qps_target", Json::Num(flags.qps));
    doc.Set("shards", Json::Num(static_cast<double>(main_run.shards)));
    doc.Set("zipf_s", Json::Num(flags.zipf_s));
    doc.Set("accepted", Json::Num(static_cast<double>(main_run.accepted)));
    doc.Set("rejected", Json::Num(static_cast<double>(main_run.rejected)));
    doc.Set("rejection_rate", Json::Num(main_run.rejection_rate));
    doc.Set("truncated", Json::Num(static_cast<double>(main_run.truncated)));
    doc.Set("failed", Json::Num(static_cast<double>(main_run.failed)));
    doc.Set("p50_ms", Json::Num(main_run.p50_ms));
    doc.Set("p95_ms", Json::Num(main_run.p95_ms));
    doc.Set("p99_ms", Json::Num(main_run.p99_ms));
    doc.Set("queue_wait_p99_ms", Json::Num(main_run.queue_wait_p99_ms));
    doc.Set("replay_seconds", Json::Num(main_run.replay_seconds));
    doc.Set("qps", Json::Num(main_run.qps()));
    doc.Set("cache_hit_rate", Json::Num(main_run.cache_hit_rate));
    doc.Set("coalesced_probes",
            Json::Num(static_cast<double>(main_run.coalesced)));
    doc.Set("popular_queries",
            Json::Num(static_cast<double>(popular_queries)));
    doc.Set("coalesced_per_popular",
            Json::Num(popular_queries > 0
                          ? static_cast<double>(main_run.coalesced) /
                                static_cast<double>(popular_queries)
                          : 0.0));
    doc.Set("verified_vs_serial",
            Json::Num(static_cast<double>(main_run.compared)));
    doc.Set("mismatches", Json::Num(static_cast<double>(main_run.mismatches)));
    doc.Set("metrics", main_run.metrics_snapshot);
    if (!sweep.empty()) {
      Json scaling = Json::Arr();
      for (const ReplayResult& r : sweep) {
        Json entry = Json::Obj();
        entry.Set("shards", Json::Num(static_cast<double>(r.shards)));
        entry.Set("p50_ms", Json::Num(r.p50_ms));
        entry.Set("p95_ms", Json::Num(r.p95_ms));
        entry.Set("p99_ms", Json::Num(r.p99_ms));
        entry.Set("qps", Json::Num(r.qps()));
        entry.Set("rejection_rate", Json::Num(r.rejection_rate));
        entry.Set("cache_hit_rate", Json::Num(r.cache_hit_rate));
        entry.Set("coalesced_probes",
                  Json::Num(static_cast<double>(r.coalesced)));
        entry.Set("mismatches",
                  Json::Num(static_cast<double>(r.mismatches)));
        scaling.Push(std::move(entry));
      }
      doc.Set("shard_scaling", std::move(scaling));
    }
    if (!bench::WriteJsonFile(flags.json_path, doc)) return 1;
  }

  size_t total_mismatches = main_run.mismatches;
  size_t total_failed = main_run.failed;
  for (const ReplayResult& r : sweep) {
    if (r.shards == main_run.shards) continue;  // already counted
    total_mismatches += r.mismatches;
    total_failed += r.failed;
  }
  if (total_mismatches > 0 || total_failed > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu mismatched answers, %zu failed requests\n",
                 total_mismatches, total_failed);
    return 1;
  }
  if (flags.require_coalescing) {
    const double per_popular =
        popular_queries > 0 ? static_cast<double>(main_run.coalesced) /
                                  static_cast<double>(popular_queries)
                            : 0.0;
    if (main_run.coalesced < 2 || per_popular <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: expected >1 coalesced probe per popular query "
                   "(coalesced=%llu, popular=%zu)\n",
                   static_cast<unsigned long long>(main_run.coalesced),
                   popular_queries);
      return 1;
    }
  }
  std::printf("all accepted answers bit-identical to the serial engine\n");
  return 0;
}
