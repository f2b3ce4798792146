// The service's metric families: Emit* helpers that adapt each subsystem's
// native stats struct into obs::MetricsRegistry samples. AimqService wires
// them into its registry's collector at construction, so one family
// catalogue, one renderer and one escaping rule serve every export: the
// Prometheus text on `GET /metrics` (a stock scrape_config pointed at the
// wire port just works), and the JSON snapshot on `GET /metrics.json` and
// `{"op":"metrics"}`:
//
//   aimq_requests_accepted_total 1042
//   aimq_request_latency_seconds_bucket{le="0.00385186"} 963
//   aimq_shard_probe_seconds_bucket{shard="3",le="0.00385186"} 241
//   aimq_simd_kernel_calls_total{kernel="eq_mask"} 52110
//
// Latency histograms keep the 96 native ×1.25 geometric buckets of
// LatencyHistogram (plus the mandatory +Inf bound), cumulative as the format
// demands. Label values are escaped (backslash, quote, newline); NaN/Inf
// scalar values render as 0.

#ifndef AIMQ_SERVICE_PROMETHEUS_H_
#define AIMQ_SERVICE_PROMETHEUS_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "live/live_engine.h"
#include "obs/metrics_registry.h"
#include "service/metrics.h"
#include "shard/sharded_web_database.h"
#include "storage/code_block_store.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"

namespace aimq {

/// Request/latency/phase families plus the relaxation-depth histogram
/// (aimq_requests_*, aimq_request_latency_seconds, aimq_queue_wait_seconds,
/// aimq_phase_*_seconds, aimq_relax_depth).
void EmitServiceMetrics(const ServiceMetrics& metrics,
                        obs::MetricsRegistry::Emitter* out);

/// Shared probe-cache families (aimq_probe_cache_*), including the
/// coalescing counter.
void EmitProbeCache(const ProbeCacheStats& stats,
                    obs::MetricsRegistry::Emitter* out);

/// Live-ingest families: snapshot/knowledge version gauges, ingest and
/// publish counters, knowledge staleness, delta size, and the publish
/// (build + swap) latency histogram aimq_snapshot_publish_seconds.
void EmitLiveIngest(const LiveIngestStats& live,
                    obs::MetricsRegistry::Emitter* out);

/// Per-tenant admission/outcome counters as `{tenant="..."}`-labelled
/// families; emits nothing for an empty map.
void EmitTenants(const std::map<std::string, TenantCounters>& tenants,
                 obs::MetricsRegistry::Emitter* out);

/// Per-shard probe accounting as `{shard="N"}`-labelled families, including
/// the per-shard probe latency histogram aimq_shard_probe_seconds.
void EmitShards(const std::vector<ShardProbeSnapshot>& shards,
                obs::MetricsRegistry::Emitter* out);

/// Block-store / block-cache families per packed store, labelled
/// `{shard="N"}` (an unsharded packed source passes index 0).
void EmitBlockStores(
    const std::vector<std::pair<size_t, storage::BlockStoreStats>>& stores,
    obs::MetricsRegistry::Emitter* out);

/// SIMD dispatch families: the active tier (an info-style gauge, 1 on the
/// active ISA's sample) and per-kernel invocation counters.
void EmitSimd(obs::MetricsRegistry::Emitter* out);

/// Trace ring-buffer accounting: spans dropped to backpressure + capacity.
void EmitTraceRecorder(const TraceRecorder& trace,
                       obs::MetricsRegistry::Emitter* out);

}  // namespace aimq

#endif  // AIMQ_SERVICE_PROMETHEUS_H_
