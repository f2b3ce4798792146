#include "shard/sharded_web_database.h"

#include <algorithm>
#include <utility>

#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/topk.h"

namespace aimq {

Result<std::unique_ptr<ShardedWebDatabase>> ShardedWebDatabase::Create(
    const WebDatabase& source, const ShardedEngineOptions& options) {
  // The facade shares the *global* snapshot: probe keys, scoring, and
  // materialization are byte-for-byte those of the unsharded source.
  std::unique_ptr<ShardedWebDatabase> facade(
      new ShardedWebDatabase(source.name(), source.columnar()));
  facade->scatter_threads_ = options.scatter_threads;

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
      if (options.build_postings) shard.db->BuildPostingLists();
    } else {
      Relation rows(source.schema());
      for (uint32_t row = range.begin; row < range.end; ++row) {
        rows.AppendUnchecked(source.MaterializeRow(row));
      }
      shard.db = std::make_unique<WebDatabase>(source.name(), std::move(rows));
    }
    if (options.shard_cache_capacity > 0) {
      shard.cache = std::make_unique<ProbeCache>(options.shard_cache_capacity);
    }
    facade->shards_.push_back(std::move(shard));
  }
  return facade;
}

Result<std::vector<uint32_t>> ShardedWebDatabase::ProbeShard(
    const Shard& shard, const SelectionQuery& query,
    uint64_t request_id) const {
  TraceSpan span(trace_, "shard_probe", "shard", request_id);
  span.AddArg("shard", static_cast<double>(&shard - shards_.data()));
  Stopwatch leg_timer;
  bool hit = false;
  Result<std::vector<uint32_t>> local =
      shard.cache != nullptr ? shard.cache->ExecuteRows(*shard.db, query, &hit)
                             : shard.db->ExecuteRows(query);
  shard.latency->Record(leg_timer.ElapsedSeconds());
  if (!local.ok()) return local.status();
  // Local ids are ascending within [0, range.NumRows()); offsetting by the
  // range's begin lifts them into the global row space, still ascending.
  std::vector<uint32_t> global;
  global.reserve(local->size());
  for (uint32_t row : *local) global.push_back(row + shard.range.begin);
  span.AddArg("rows", static_cast<double>(global.size()));
  span.AddArg("cache_hit", hit ? 1.0 : 0.0);
  return global;
}

Result<std::vector<uint32_t>> ShardedWebDatabase::ExecuteRows(
    const SelectionQuery& query) const {
  AIMQ_RETURN_NOT_OK(ValidateBooleanQuery(query));
  // Capture the ambient request id on the calling thread: the scatter legs
  // may run on pool threads where the thread-local id is not set.
  const uint64_t request_id = TraceRecorder::CurrentRequestId();

  const size_t n = shards_.size();
  std::vector<std::vector<uint32_t>> legs(n);
  std::vector<Status> statuses(n, Status::OK());
  const auto run_leg = [&](size_t s) {
    Result<std::vector<uint32_t>> leg = ProbeShard(shards_[s], query,
                                                   request_id);
    if (leg.ok()) legs[s] = std::move(*leg);
    else statuses[s] = leg.status();
  };
  if (scatter_threads_ > 1 && n > 1) {
    ParallelFor(n, scatter_threads_, run_leg);
  } else {
    for (size_t s = 0; s < n; ++s) run_leg(s);
  }
  for (const Status& status : statuses) AIMQ_RETURN_NOT_OK(status);

  // Ranges are contiguous and disjoint, so concatenating the (ascending)
  // per-shard answers in shard order is already the globally ascending
  // row-id list — identical to the unsharded scan, no sort needed.
  size_t total = 0;
  for (const std::vector<uint32_t>& leg : legs) total += leg.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const std::vector<uint32_t>& leg : legs) {
    out.insert(out.end(), leg.begin(), leg.end());
  }
  AccountProbe(out.size());
  return out;
}

std::vector<std::pair<double, uint32_t>> ShardedWebDatabase::RankTopK(
    const std::vector<uint32_t>& rows, size_t k,
    const std::function<double(uint32_t)>& score) const {
  if (k == 0 || rows.empty()) return {};
  // Split the ascending row list into contiguous per-shard segments.
  struct Segment {
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<Segment> segments(shards_.size());
  size_t pos = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    segments[s].begin = pos;
    while (pos < rows.size() && rows[pos] < shards_[s].range.end) ++pos;
    segments[s].end = pos;
  }

  // Per-shard top-k over global ids. Feeding TopK ascending rows makes its
  // insertion-order tie-break equivalent to (score desc, row asc) — the
  // same order the merge below sorts by, so shard-local survivors are
  // exactly the global survivors restricted to the shard.
  std::vector<std::vector<std::pair<double, uint32_t>>> local(shards_.size());
  const auto rank_shard = [&](size_t s) {
    if (segments[s].begin == segments[s].end) return;
    TopK<uint32_t> best(k);
    for (size_t i = segments[s].begin; i < segments[s].end; ++i) {
      best.Add(score(rows[i]), rows[i]);
    }
    local[s] = best.Extract();
  };
  if (scatter_threads_ > 1 && shards_.size() > 1) {
    ParallelFor(shards_.size(), scatter_threads_, rank_shard);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) rank_shard(s);
  }

  std::vector<std::pair<double, uint32_t>> merged;
  merged.reserve(std::min(rows.size(), k * shards_.size()));
  for (std::vector<std::pair<double, uint32_t>>& leg : local) {
    merged.insert(merged.end(), leg.begin(), leg.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<double, uint32_t>& a,
               const std::pair<double, uint32_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
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
    if (shards_[s].cache != nullptr) snap.cache = shards_[s].cache->stats();
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
