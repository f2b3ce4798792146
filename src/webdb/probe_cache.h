// ProbeCache: a shared, thread-safe memoization layer in front of
// WebDatabase::ExecuteRows.
//
// Algorithm 1 turns every base-set tuple into a fully-bound selection query
// and relaxes it attribute-by-attribute, so distinct base tuples frequently
// emit the *same* relaxed query (a deep relaxation of any Camry keeps only
// Model = Camry). Against an autonomous source each duplicate probe costs
// real network latency; the cache folds them into one physical probe. Keys
// are the source's coded probe keys: predicates pre-resolved to dictionary
// codes and sorted, so syntactically different but equivalent conjunctions
// share an entry, and entries are plain row-id vectors — an answerset of
// 10k tuples caches as 40 kB of integers, not 10k materialized Tuples.
//
// The cache is safe for concurrent Execute() calls — the engine's parallel
// relaxation fan-out and concurrent query sessions share one instance. It
// is split into kStripes stripes selected by key hash; each stripe has its
// own mutex, index, LRU list and in-flight flights, so threads probing
// different keys rarely meet on a lock. The stripe mutex guards only
// bookkeeping, never the source probe itself: two threads that miss the same
// key simultaneously may both probe the source (the second insert
// overwrites with identical data), which trades a rare duplicate probe for
// never serializing probe latency. Keys are hashed and row vectors copied
// and freed outside the mutex: probes take microseconds, so every
// relaxation thread takes a stripe lock hundreds of times per query.
//
// Capacity is global, not per stripe. Every Get hit and Put stamps its entry
// from one atomic counter, each stripe publishes its least recent entry's
// stamp, and a Put that takes the total over capacity evicts the tail with
// the globally smallest stamp. Driven by one thread this evicts exactly the
// entries a single LRU of the same capacity would, so hits, misses,
// evictions and the paper figures' probe counts do not depend on the
// striping; under concurrency the victim is the oldest tail at the moment
// it is chosen.
//
// EnableCoalescing(true) switches that trade around with a group-commit
// style in-flight table: the first thread to miss a key becomes the probe's
// *leader* and executes it; concurrent threads that miss the same key park
// on the leader's flight and are handed the leader's answer when it lands —
// one physical probe serves N waiting sessions. Parked followers report as
// cache hits (their probe was served without touching the source), and are
// additionally counted in `coalesced`. With coalescing on, each distinct
// key is probed exactly once per residency (never twice by a race), which
// also makes probe accounting deterministic under concurrency.

#ifndef AIMQ_WEBDB_PROBE_CACHE_H_
#define AIMQ_WEBDB_PROBE_CACHE_H_

#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "query/selection_query.h"
#include "util/lru.h"
#include "webdb/web_database.h"

namespace aimq {

/// Snapshot of cache accounting (all counters since construction or the
/// last Clear()).
struct ProbeCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Lookups served by parking on a probe already in flight (counted in
  /// `hits` as well): one source scan answered this many extra sessions.
  uint64_t coalesced = 0;
  /// Entries dropped by EvictVersionsBelow (live ingest ages out answers
  /// from superseded snapshot versions). Separate from `evictions`, which
  /// counts only capacity pressure.
  uint64_t version_evictions = 0;

  /// Fraction of lookups spared a source probe (0 when no lookups yet).
  /// The serving layer reports this per metrics snapshot.
  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Thread-safe LRU cache over coded selection-query keys.
class ProbeCache {
 public:
  /// \p capacity is the number of distinct queries retained and must be at
  /// least 1. A caller that wants no cache holds no ProbeCache.
  explicit ProbeCache(size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  ProbeCache(const ProbeCache&) = delete;
  ProbeCache& operator=(const ProbeCache&) = delete;

  /// Number of lock stripes (a power of two).
  static constexpr size_t kStripes = 16;

  /// Serves \p query's row ids from the cache, or forwards the probe to
  /// \p db and caches the answer. \p hit (optional) reports whether the
  /// source was spared. Errors are never cached.
  Result<std::vector<uint32_t>> ExecuteRows(const WebDatabase& db,
                                            const SelectionQuery& query,
                                            bool* hit = nullptr);

  /// ExecuteRows materialized through the source's dictionaries.
  Result<std::vector<Tuple>> Execute(const WebDatabase& db,
                                     const SelectionQuery& query,
                                     bool* hit = nullptr);

  /// True iff \p query (against \p db) is currently cached (does not
  /// refresh recency; diagnostics/tests).
  bool Contains(const WebDatabase& db, const SelectionQuery& query) const;

  /// Drops all entries and resets the counters. Probes currently in flight
  /// are unaffected (their waiters still get the leader's answer).
  void Clear();

  /// Drops every entry cached against a snapshot version below \p version,
  /// returning the number dropped (also accumulated in
  /// stats().version_evictions). Live ingest calls this on publish: stale
  /// entries can never poison new-version answers (keys embed the version,
  /// so they simply never match), but without aging they would squat in the
  /// LRU until capacity pressure pushes them out. Probes in flight are
  /// unaffected — a follower parked across a swap still observes its
  /// leader's old-version answer.
  size_t EvictVersionsBelow(uint64_t version);

  /// Turns the in-flight coalescing table on or off (off by default, which
  /// preserves the historical race-and-overwrite behavior). Flip it before
  /// serving traffic; in-flight probes started under the previous setting
  /// complete under it.
  void EnableCoalescing(bool enabled);
  bool coalescing_enabled() const;

  /// Followers currently parked on in-flight probes (diagnostics/tests: a
  /// coalescing test can wait for all followers to arrive before releasing
  /// a blocked leader).
  size_t InFlightWaiters() const;

  size_t size() const;
  ProbeCacheStats stats() const;

 private:
  using Rows = std::shared_ptr<const std::vector<uint32_t>>;

  // A coded probe key and its hash, computed once, outside any lock.
  struct Key {
    std::string text;
    size_t hash = 0;
    bool operator==(const Key& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const { return key.hash; }
  };
  static Key MakeKey(const WebDatabase& db, const SelectionQuery& query);

  // One probe being executed by its leader; followers park on cv until done.
  struct Flight {
    explicit Flight(Key k) : key(std::move(k)) {}
    Key key;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    Rows rows;
    size_t waiters = 0;
  };

  // Cached answer, the snapshot version it was probed against (used only by
  // EvictVersionsBelow; version match on lookup is implied by the key, which
  // embeds snapshot version + uid) and its recency stamp. The rows are
  // shared with the flight that probed them and copied out only after the
  // stripe lock is released.
  struct Entry {
    Rows rows;
    uint64_t version = 0;
    uint64_t stamp = 0;
  };

  // Published tail stamp of an empty stripe.
  static constexpr uint64_t kNoTail = UINT64_MAX;

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    // Unbounded per stripe: the global budget evicts across stripes.
    LruCache<Key, Entry, KeyHash> lru{SIZE_MAX};  // guarded by mu
    ProbeCacheStats stats;                        // guarded by mu
    // Probes in flight; at most one per probing thread, so a linear scan
    // finds a key. Flights are shared so one outlives its slot while
    // followers still hold it. Guarded by mu; followers wait on the
    // flight's cv with mu held (released while waiting).
    std::vector<std::shared_ptr<Flight>> flights;
    // Stamp of lru's least recent entry (kNoTail when empty); written under
    // mu, read without it when choosing an eviction victim.
    std::atomic<uint64_t> tail_stamp{kNoTail};

    // Callers hold mu.
    std::shared_ptr<Flight> FindFlight(const Key& key) const;
    void EraseFlight(const Flight* flight);
    void PublishTail();
  };

  // Mixed high hash bits: each stripe's index buckets on the low ones.
  static size_t StripeIndex(const Key& key) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key.hash) * 0x9E3779B97F4A7C15ull) >> 60);
  }

  // Evicts globally least recent entries while the total exceeds capacity.
  void EvictOverCapacity();

  static_assert(kStripes == 16, "StripeIndex takes the top 4 hash bits");

  const size_t capacity_;  // immutable; readable without a lock
  std::array<Stripe, kStripes> stripes_;
  std::atomic<bool> coalesce_{false};
  // Recency clock: every Get hit and Put takes the next stamp.
  std::atomic<uint64_t> clock_{0};
  // Entries present minus evictions claimed but not yet carried out. Signed:
  // a Clear() racing a claimed eviction drives it below zero until the
  // claimant gives its claim back.
  std::atomic<int64_t> size_{0};
};

}  // namespace aimq

#endif  // AIMQ_WEBDB_PROBE_CACHE_H_
