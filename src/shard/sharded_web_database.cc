#include "shard/sharded_web_database.h"

#include <utility>

#include "util/stopwatch.h"

namespace aimq {

Result<std::unique_ptr<ShardedWebDatabase>> ShardedWebDatabase::Create(
    const WebDatabase& source, const ShardedEngineOptions& options) {
  // The facade shares the *global* snapshot: probe keys, scoring, and
  // materialization are byte-for-byte those of the unsharded source.
  std::unique_ptr<ShardedWebDatabase> facade(
      new ShardedWebDatabase(source.name(), source.columnar()));

  const std::vector<ShardRange> plan =
      PlanRowRanges(source.NumTuples(), options.num_shards);
  facade->shards_.reserve(plan.size());
  for (const ShardRange& range : plan) {
    Shard shard;
    shard.range = range;
    if (options.packed_shards) {
      ColumnarBuilder::Options build_opts;
      build_opts.store = options.store;
      AIMQ_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarBuilder> builder,
                            ColumnarBuilder::Create(source.schema(),
                                                    std::move(build_opts)));
      for (uint32_t row = range.begin; row < range.end; ++row) {
        AIMQ_RETURN_NOT_OK(builder->AppendRow(source.MaterializeRow(row)));
      }
      AIMQ_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> snapshot,
                            builder->Finish());
      // Shard dbs reuse the source's name so any error a shard surfaces
      // reads exactly like the unsharded source's.
      shard.db = std::make_unique<WebDatabase>(source.name(),
                                               std::move(snapshot));
      shard.db->BuildPostingLists();
    } else {
      Relation rows(source.schema());
      for (uint32_t row = range.begin; row < range.end; ++row) {
        rows.AppendUnchecked(source.MaterializeRow(row));
      }
      shard.db = std::make_unique<WebDatabase>(source.name(), std::move(rows));
    }
    facade->shards_.push_back(std::move(shard));
  }
  return facade;
}

Status ShardedWebDatabase::ProbeShard(const Shard& shard,
                                      const SelectionQuery& query,
                                      std::vector<uint32_t>* out) const {
  TraceSpan span(trace_, "shard_probe", "shard",
                 TraceRecorder::CurrentRequestId());
  span.AddArg("shard", static_cast<double>(&shard - shards_.data()));
  Stopwatch leg_timer;
  Result<std::vector<uint32_t>> local = shard.db->ExecuteRows(query);
  shard.latency->Record(leg_timer.ElapsedSeconds());
  if (!local.ok()) return local.status();
  // Local ids are ascending within [0, range.NumRows()); offsetting by the
  // range's begin lifts them into the global row space, still ascending.
  for (uint32_t row : *local) out->push_back(row + shard.range.begin);
  span.AddArg("rows", static_cast<double>(local->size()));
  return Status::OK();
}

Result<std::vector<uint32_t>> ShardedWebDatabase::ExecuteRows(
    const SelectionQuery& query) const {
  AIMQ_RETURN_NOT_OK(ValidateBooleanQuery(query));
  // Ranges are contiguous and disjoint, so appending the (ascending)
  // per-shard answers in shard order builds the globally ascending row-id
  // list — identical to the unsharded scan, no sort needed.
  std::vector<uint32_t> out;
  for (const Shard& shard : shards_) {
    AIMQ_RETURN_NOT_OK(ProbeShard(shard, query, &out));
  }
  AccountProbe(out.size());
  return out;
}

std::vector<ShardProbeSnapshot> ShardedWebDatabase::ShardStats() const {
  std::vector<ShardProbeSnapshot> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardProbeSnapshot snap;
    snap.shard = s;
    snap.begin_row = shards_[s].range.begin;
    snap.end_row = shards_[s].range.end;
    snap.queries_issued =
        shards_[s].db->stats().queries_issued.load(std::memory_order_relaxed);
    snap.tuples_returned =
        shards_[s].db->stats().tuples_returned.load(std::memory_order_relaxed);
    snap.latency = shards_[s].latency->Snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::pair<size_t, storage::BlockStoreStats>>
ShardedWebDatabase::ShardBlockStats() const {
  std::vector<std::pair<size_t, storage::BlockStoreStats>> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const storage::CodeBlockStore* store =
        shards_[s].db->columnar()->block_store();
    if (store == nullptr) continue;
    out.emplace_back(s, store->GetStats());
  }
  return out;
}

}  // namespace aimq
