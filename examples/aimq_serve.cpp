// aimq_serve: the AIMQ query service as a standalone TCP daemon.
//
// Speaks the newline-delimited JSON protocol of src/service/wire.h — one
// request per line, one response line back; try it with nc:
//
//   $ aimq_serve --data=cardb:2000 --port=7777 &
//   $ echo '{"op":"query","q":"Q(Model like Camry)"}' | nc -q1 localhost 7777
//
// Usage:
//   aimq_serve --data=<data.csv|cardb:N> [--model=<dir>] [flags]
//
// Flags:
//   --port=N         TCP port (0 = kernel-assigned, printed on stdout;
//                    default 7777)
//   --threads=N      service worker threads (default 4)
//   --engine-threads=N   relaxation fan-out threads per query (default 2)
//   --queue-depth=N  bounded request queue; beyond it submissions are
//                    rejected kUnavailable (default 64)
//   --deadline-ms=N  default per-request deadline, queue wait included
//                    (0 = none, default 0)
//   --cache=N        shared probe-cache capacity in entries (default 4096)
//   --shards=N       row-range shards behind the engine's probe facade
//                    (default 1 = unsharded; answers are identical)
//   --packed-shards  store shard snapshots block-compressed
//   --no-coalesce    disable cross-query probe coalescing
//   --tenant-quota=N per-tenant queued-request cap (0 = off, default 0);
//                    wire requests pick their tenant via {"tenant":"name"}
//   --tenant-weight=name:W   fair-share weight for a tenant (repeatable;
//                    unlisted tenants weigh 1)
//   --ingest-trigger-rows=N  re-mine knowledge in the background once N
//                    published rows postdate the current edition (0 = off)
//   --ingest-trigger-secs=S  re-mine knowledge every S seconds while any
//                    published row postdates it (0 = off)
//   --trace          enable end-to-end span tracing (GET /trace serves the
//                    Chrome trace-event dump while running)
//   --trace-out=F    on shutdown, write the retained trace to F (implies
//                    --trace); load the file in Perfetto
//   --slow-ms=N      log any request slower than N ms (fractions allowed)
//   --slow-log=F     append slow-query NDJSON records to F
//
// Prometheus can scrape the wire port directly: GET /metrics answers text
// exposition format 0.0.4 on the same TCP port as the NDJSON protocol.
//
// Without --model the knowledge is mined at startup from a 1/3 sample of
// the data (a few seconds for cardb:25000); with --model a directory saved
// by `aimq_cli mine` is loaded instead.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <semaphore.h>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/persist.h"
#include "datagen/cardb.h"
#include "service/server.h"
#include "service/service.h"
#include "util/strings.h"

using namespace aimq;

namespace {

struct ServeFlags {
  int port = 7777;
  size_t workers = 4;
  size_t engine_threads = 2;
  size_t queue_depth = 64;
  uint64_t deadline_ms = 0;
  size_t cache_capacity = 4096;
  size_t num_shards = 1;
  bool packed_shards = false;
  bool coalesce = true;
  size_t tenant_quota = 0;
  std::map<std::string, double> tenant_weights;
  uint64_t ingest_trigger_rows = 0;
  double ingest_trigger_seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  double slow_ms = 0.0;
  std::string slow_log;
  std::string data;
  std::string model_dir;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<Relation> LoadData(const std::string& source) {
  if (StartsWith(source, "cardb:")) {
    CarDbSpec spec;
    spec.num_tuples = static_cast<size_t>(std::atoll(source.c_str() + 6));
    if (spec.num_tuples == 0) {
      return Status::InvalidArgument("cardb:N requires N > 0");
    }
    return CarDbGenerator(spec).Generate();
  }
  return Relation::ReadCsv(source, CarDbGenerator::MakeSchema());
}

// Signal handling: SIGINT/SIGTERM post a semaphore the main thread waits on
// (sem_post is async-signal-safe; condition variables are not).
sem_t g_shutdown_sem;

void HandleSignal(int) { sem_post(&g_shutdown_sem); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: aimq_serve --data=<data.csv|cardb:N> [--model=<dir>]\n"
      "       [--port=N] [--threads=N] [--engine-threads=N]\n"
      "       [--queue-depth=N] [--deadline-ms=N] [--cache=N]\n"
      "       [--shards=N] [--packed-shards] [--no-coalesce]\n"
      "       [--tenant-quota=N] [--tenant-weight=name:W]\n"
      "       [--ingest-trigger-rows=N] [--ingest-trigger-secs=S]\n"
      "       [--trace] [--trace-out=<file>] [--slow-ms=N]\n"
      "       [--slow-log=<file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--port=")) {
      flags.port = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--threads=")) {
      flags.workers =
          static_cast<size_t>(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (StartsWith(arg, "--engine-threads=")) {
      flags.engine_threads =
          static_cast<size_t>(std::strtoul(arg.c_str() + 17, nullptr, 10));
    } else if (StartsWith(arg, "--queue-depth=")) {
      flags.queue_depth =
          static_cast<size_t>(std::strtoul(arg.c_str() + 14, nullptr, 10));
    } else if (StartsWith(arg, "--deadline-ms=")) {
      flags.deadline_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (StartsWith(arg, "--cache=")) {
      flags.cache_capacity =
          static_cast<size_t>(std::strtoul(arg.c_str() + 8, nullptr, 10));
    } else if (StartsWith(arg, "--shards=")) {
      flags.num_shards =
          static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg == "--packed-shards") {
      flags.packed_shards = true;
    } else if (arg == "--no-coalesce") {
      flags.coalesce = false;
    } else if (StartsWith(arg, "--tenant-quota=")) {
      flags.tenant_quota =
          static_cast<size_t>(std::strtoul(arg.c_str() + 15, nullptr, 10));
    } else if (StartsWith(arg, "--tenant-weight=")) {
      const std::string spec = arg.substr(16);
      const size_t colon = spec.rfind(':');
      const double weight =
          colon == std::string::npos ? 0.0 : std::atof(spec.c_str() + colon + 1);
      if (colon == std::string::npos || colon == 0 || weight <= 0.0) {
        std::fprintf(stderr, "--tenant-weight expects name:W with W > 0\n");
        return Usage();
      }
      flags.tenant_weights[spec.substr(0, colon)] = weight;
    } else if (StartsWith(arg, "--ingest-trigger-rows=")) {
      flags.ingest_trigger_rows = std::strtoull(arg.c_str() + 22, nullptr, 10);
    } else if (StartsWith(arg, "--ingest-trigger-secs=")) {
      flags.ingest_trigger_seconds = std::atof(arg.c_str() + 22);
    } else if (arg == "--trace") {
      flags.trace = true;
    } else if (StartsWith(arg, "--trace-out=")) {
      flags.trace = true;
      flags.trace_out = arg.substr(12);
    } else if (StartsWith(arg, "--slow-ms=")) {
      flags.slow_ms = std::atof(arg.c_str() + 10);
    } else if (StartsWith(arg, "--slow-log=")) {
      flags.slow_log = arg.substr(11);
    } else if (StartsWith(arg, "--data=")) {
      flags.data = arg.substr(7);
    } else if (StartsWith(arg, "--model=")) {
      flags.model_dir = arg.substr(8);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (flags.data.empty()) return Usage();
  if (flags.workers == 0) flags.workers = 1;

  auto data = LoadData(flags.data);
  if (!data.ok()) return Fail(data.status());
  WebDatabase db("CarDB", data.TakeValue());

  AimqOptions options;
  options.num_threads = flags.engine_threads;
  options.probe_cache_capacity = flags.cache_capacity;
  options.collector.sample_size = db.NumTuples() / 3;

  Result<MinedKnowledge> knowledge =
      flags.model_dir.empty()
          ? BuildKnowledge(db, options)
          : LoadKnowledge(db.schema(), flags.model_dir);
  if (!knowledge.ok()) return Fail(knowledge.status());
  std::fprintf(stderr, "knowledge ready (%zu AFDs, %zu keys)\n",
               knowledge->dependencies.afds.size(),
               knowledge->dependencies.keys.size());

  ServiceOptions sopts;
  sopts.num_workers = flags.workers;
  sopts.queue_depth = flags.queue_depth;
  sopts.default_deadline_ms = flags.deadline_ms;
  sopts.enable_tracing = flags.trace;
  sopts.slow_query_ms = flags.slow_ms;
  sopts.slow_query_log_path = flags.slow_log;
  sopts.num_shards = flags.num_shards;
  sopts.packed_shards = flags.packed_shards;
  sopts.coalesce_probes = flags.coalesce;
  sopts.tenant_quota = flags.tenant_quota;
  sopts.tenant_weights = flags.tenant_weights;
  sopts.ingest_trigger_rows = flags.ingest_trigger_rows;
  sopts.ingest_trigger_seconds = flags.ingest_trigger_seconds;
  AimqService service(&db, knowledge.TakeValue(), options, sopts);
  if (!service.shard_build_status().ok()) {
    std::fprintf(stderr, "shard build degraded to unsharded: %s\n",
                 service.shard_build_status().ToString().c_str());
  }
  if (service.num_shards() > 1) {
    std::fprintf(stderr, "serving from %zu row-range shards%s\n",
                 service.num_shards(),
                 flags.packed_shards ? " (packed)" : "");
  }
  Status st = service.Start();
  if (!st.ok()) return Fail(st);

  AimqServer server(&service, flags.port);
  st = server.Start();
  if (!st.ok()) return Fail(st);

  // Machine-readable readiness line (the CI smoke test greps for it).
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);

  sem_init(&g_shutdown_sem, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown_sem) != 0 && errno == EINTR) {
  }

  std::fprintf(stderr, "shutting down\n");
  server.Stop();
  service.Stop();  // drain-then-stop: queued requests finish first

  if (!flags.trace_out.empty()) {
    if (std::FILE* f = std::fopen(flags.trace_out.c_str(), "w")) {
      const std::string dump = service.ChromeTraceJson().Dump();
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "trace written to %s\n", flags.trace_out.c_str());
    } else {
      std::fprintf(stderr, "could not open %s\n", flags.trace_out.c_str());
    }
  }
  return 0;
}
