// ShardedWebDatabase: row-range shards behind one scatter/gather facade.
//
// The relation is split into N contiguous row ranges (shard_plan.h); each
// shard gets its own columnar snapshot (plain or packed), its own per-code
// posting lists, and its own ProbeCache, so N shards scan, index, and cache
// independently — the scale-out unit ROADMAP's "sharded engines" item asks
// for. In front of them sits ShardedWebDatabase, a WebDatabase facade whose
// ExecuteRows scatters the probe to every shard and gathers the per-shard
// answers by offsetting local row ids into the global row space and
// concatenating in shard order. Because ranges are contiguous and disjoint
// and every shard answers ascending local ids, the gathered list is the
// globally ascending row-id vector the unsharded source returns:
// bit-identical answers at any shard count.
//
// The AIMQ relaxation algorithm itself is *not* sharded: base-set
// generalization and the progressive FindSimilar descent both branch on
// global emptiness/counts, so running N independent engines would change
// answers. Instead one AimqEngine runs the unmodified Algorithm 1 over the
// facade — the probe/scan layer scales out, the algorithm stays global and
// deterministic. The facade also implements the engine's ShardRanker hook,
// executing base-set top-k trimming as per-shard top-k scans merged by
// (score desc, row asc) — provably equal to the engine's serial TopK over
// an ascending row list. LiveEngine builds the facade of every serving
// version and wires it into that version's engine (live/live_engine.h).

#ifndef AIMQ_SHARD_SHARDED_WEB_DATABASE_H_
#define AIMQ_SHARD_SHARDED_WEB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "shard/shard_plan.h"
#include "storage/code_block_store.h"
#include "util/histogram.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {

/// Tunables of the shard layer (the engine keeps its own AimqOptions).
struct ShardedEngineOptions {
  /// Row-range shards. <= 1 disables sharding entirely (the engine probes
  /// the source directly; no facade is built).
  size_t num_shards = 1;

  /// Store each shard's snapshot packed (bit-packed blocks under
  /// `store`'s budget) instead of plain resident columns.
  bool packed_shards = false;

  /// Block-store configuration for packed shard snapshots.
  storage::BlockStoreOptions store;

  /// Whether each shard materializes per-code posting lists. Postings make
  /// probes index-assisted even for packed shards (viable at shard
  /// granularity where a monolithic packed source cannot afford them).
  bool build_postings = true;

  /// Per-shard ProbeCache capacity in entries (0 disables shard caches;
  /// probes then always scan the shard).
  size_t shard_cache_capacity = 4096;

  /// Threads for the scatter fan-out and sharded top-k (0 or 1 = the legs
  /// run inline). Answers are identical at any value.
  size_t scatter_threads = 0;

  /// Group-commit probe coalescing on the engine-level shared ProbeCache:
  /// identical in-flight probes from concurrent sessions park on one scan.
  /// Also makes probe accounting exactly-once per distinct probe key.
  bool coalesce_probes = true;
};

/// Per-shard probe accounting, for shard-labelled service metrics.
struct ShardProbeSnapshot {
  size_t shard = 0;
  uint32_t begin_row = 0;
  uint32_t end_row = 0;
  uint64_t queries_issued = 0;
  uint64_t tuples_returned = 0;
  ProbeCacheStats cache;
  /// Scatter-leg latency distribution of this shard (one record per
  /// ProbeShard call, cache hits included).
  HistogramSnapshot latency;
};

/// \brief Scatter/gather WebDatabase facade over row-range shards.
///
/// Constructed over the *global* columnar snapshot, so schema(),
/// CodedProbeKey(), MaterializeRow(), and columnar() behave exactly like the
/// unsharded source (probe-cache keys and engine scoring are unchanged);
/// only ExecuteRows routes differently. Thread-safe like its base class.
class ShardedWebDatabase : public WebDatabase, public ShardRanker {
 public:
  struct Shard {
    ShardRange range;
    std::unique_ptr<WebDatabase> db;       // over the shard snapshot
    std::unique_ptr<ProbeCache> cache;     // per-shard probe cache
    // Scatter-leg latency (lock-free records from any probing thread).
    std::unique_ptr<LatencyHistogram> latency =
        std::make_unique<LatencyHistogram>();
  };

  /// Builds the facade and its per-shard snapshots from \p source (plain or
  /// packed). The shards copy the source's rows; \p source itself is only
  /// read during construction but must outlive the facade (the shared global
  /// snapshot is what outlives).
  static Result<std::unique_ptr<ShardedWebDatabase>> Create(
      const WebDatabase& source, const ShardedEngineOptions& options);

  /// Scatters \p query to every shard, gathers ascending global row ids.
  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override;

  /// ShardRanker: per-shard top-k over the global scoring function, merged
  /// by (score desc, row asc).
  std::vector<std::pair<double, uint32_t>> RankTopK(
      const std::vector<uint32_t>& rows, size_t k,
      const std::function<double(uint32_t)>& score) const override;

  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return shards_[i]; }

  /// Per-shard probe + cache accounting (shard-labelled /metrics families).
  std::vector<ShardProbeSnapshot> ShardStats() const;

  /// (shard index, block-store stats) of every packed shard snapshot;
  /// empty when the shards are plain. Feeds the block-cache metric
  /// families and the explain op's blocks-decoded delta.
  std::vector<std::pair<size_t, storage::BlockStoreStats>> ShardBlockStats()
      const;

  /// Span recorder for per-shard scatter-leg spans ("shard_probe",
  /// correlated via TraceRecorder::CurrentRequestId). nullptr detaches.
  void SetTraceRecorder(TraceRecorder* recorder) { trace_ = recorder; }

 private:
  ShardedWebDatabase(std::string name,
                     std::shared_ptr<const ColumnarRelation> cols)
      : WebDatabase(std::move(name), std::move(cols)) {}

  // One scatter leg: shard-local probe through the shard's cache, offset to
  // global row ids.
  Result<std::vector<uint32_t>> ProbeShard(const Shard& shard,
                                           const SelectionQuery& query,
                                           uint64_t request_id) const;

  std::vector<Shard> shards_;
  size_t scatter_threads_ = 0;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace aimq

#endif  // AIMQ_SHARD_SHARDED_WEB_DATABASE_H_
