// ShardedWebDatabase: row-range shards behind one WebDatabase facade.
//
// The relation is split into N contiguous row ranges (shard_plan.h); each
// shard gets its own columnar snapshot (plain or packed) and its own
// per-code posting lists, so N shards scan and index independently. In
// front of them sits ShardedWebDatabase, a WebDatabase facade whose
// ExecuteRows probes every shard in turn, inline on the calling thread,
// and gathers the per-shard answers by offsetting local row ids into the
// global row space and concatenating in shard order. Because ranges are
// contiguous and disjoint and every shard answers ascending local ids, the
// gathered list is the globally ascending row-id vector the unsharded
// source returns: bit-identical answers at any shard count.
//
// The facade has no cache of its own: the engine's one ProbeCache sits in
// front of it, keyed on the global snapshot's coded probe keys. The AIMQ
// relaxation algorithm itself is *not* sharded: base-set generalization,
// top-k trimming and the progressive FindSimilar descent all run in one
// AimqEngine over the facade — the probe/scan layer scales out, the
// algorithm stays global and deterministic. LiveEngine builds the facade of
// every serving version (live/live_engine.h).

#ifndef AIMQ_SHARD_SHARDED_WEB_DATABASE_H_
#define AIMQ_SHARD_SHARDED_WEB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
  /// `store`'s budget) instead of plain resident columns. Packed shards
  /// still build per-code posting lists, which keeps their probes
  /// index-assisted (affordable at shard granularity where a monolithic
  /// packed source cannot afford them).
  bool packed_shards = false;

  /// Block-store configuration for packed shard snapshots.
  storage::BlockStoreOptions store;
};

/// Per-shard probe accounting, for shard-labelled service metrics.
struct ShardProbeSnapshot {
  size_t shard = 0;
  uint32_t begin_row = 0;
  uint32_t end_row = 0;
  uint64_t queries_issued = 0;
  uint64_t tuples_returned = 0;
  /// Always zero: shards have no cache since the engine's one ProbeCache
  /// sits in front of the facade. Kept only because the serving benchmark
  /// still reads it; it goes with the benchmark's next change.
  ProbeCacheStats cache;
  /// Leg latency distribution of this shard (one record per ProbeShard
  /// call).
  HistogramSnapshot latency;
};

/// \brief WebDatabase facade over row-range shards.
///
/// Constructed over the *global* columnar snapshot, so schema(),
/// CodedProbeKey(), MaterializeRow(), and columnar() behave exactly like the
/// unsharded source (probe-cache keys and engine scoring are unchanged);
/// only ExecuteRows routes differently. Thread-safe like its base class.
class ShardedWebDatabase : public WebDatabase {
 public:
  struct Shard {
    ShardRange range;
    std::unique_ptr<WebDatabase> db;  // over the shard snapshot
    // Leg latency (lock-free records from any probing thread).
    std::unique_ptr<LatencyHistogram> latency =
        std::make_unique<LatencyHistogram>();
  };

  /// Builds the facade and its per-shard snapshots from \p source (plain or
  /// packed). The shards copy the source's rows; \p source itself is only
  /// read during construction but must outlive the facade (the shared global
  /// snapshot is what outlives).
  static Result<std::unique_ptr<ShardedWebDatabase>> Create(
      const WebDatabase& source, const ShardedEngineOptions& options);

  /// Probes every shard with \p query, gathers ascending global row ids.
  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override;

  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return shards_[i]; }

  /// Per-shard probe accounting (shard-labelled /metrics families).
  std::vector<ShardProbeSnapshot> ShardStats() const;

  /// (shard index, block-store stats) of every packed shard snapshot;
  /// empty when the shards are plain. Feeds the block-cache metric
  /// families and the explain op's blocks-decoded delta.
  std::vector<std::pair<size_t, storage::BlockStoreStats>> ShardBlockStats()
      const;

  /// Span recorder for per-shard leg spans ("shard_probe",
  /// correlated via TraceRecorder::CurrentRequestId). nullptr detaches.
  void SetTraceRecorder(TraceRecorder* recorder) { trace_ = recorder; }

 private:
  ShardedWebDatabase(std::string name,
                     std::shared_ptr<const ColumnarRelation> cols)
      : WebDatabase(std::move(name), std::move(cols)) {}

  // One leg: shard-local probe, appended to \p out as global row ids.
  Status ProbeShard(const Shard& shard, const SelectionQuery& query,
                    std::vector<uint32_t>* out) const;

  std::vector<Shard> shards_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace aimq

#endif  // AIMQ_SHARD_SHARDED_WEB_DATABASE_H_
