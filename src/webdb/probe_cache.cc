#include "webdb/probe_cache.h"

#include <functional>
#include <optional>

namespace aimq {

ProbeCache::Key ProbeCache::MakeKey(const WebDatabase& db,
                                    const SelectionQuery& query) {
  Key key;
  key.text = db.CodedProbeKey(query);
  key.hash = std::hash<std::string>()(key.text);
  return key;
}

Result<std::vector<uint32_t>> ProbeCache::ExecuteRows(const WebDatabase& db,
                                                      const SelectionQuery& query,
                                                      bool* hit) {
  if (hit != nullptr) *hit = false;

  // Only bookkeeping runs under the stripe lock. Keys are hashed, flights
  // allocated and row vectors copied or freed outside it: every relaxation
  // thread takes a stripe lock twice per probe, and a probe takes only
  // microseconds, so work held under it turns into a lock convoy.
  auto mine = std::make_shared<Flight>(MakeKey(db, query));
  Stripe& stripe = stripes_[StripeIndex(mine->key)];
  Rows served;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(stripe.mu);
    ++stripe.stats.lookups;
    std::shared_ptr<Flight> flight;
    if (Entry* cached = stripe.lru.Get(mine->key)) {
      ++stripe.stats.hits;
      if (hit != nullptr) *hit = true;
      cached->stamp = clock_.fetch_add(1, std::memory_order_relaxed);
      stripe.PublishTail();
      served = cached->rows;  // entries are immutable
    } else if (coalesce_.load(std::memory_order_relaxed) &&
               (flight = stripe.FindFlight(mine->key)) != nullptr) {
      // Park on the running probe: one source scan serves every waiter.
      // The follower was spared a source probe, so it reports as a hit.
      ++flight->waiters;
      ++stripe.stats.hits;
      ++stripe.stats.coalesced;
      if (hit != nullptr) *hit = true;
      flight->cv.wait(lock, [&flight] { return flight->done; });
      --flight->waiters;
      if (!flight->status.ok()) return flight->status;
      served = flight->rows;
    } else {
      if (coalesce_.load(std::memory_order_relaxed)) {
        stripe.flights.push_back(mine);
        leader = true;
      }
      ++stripe.stats.misses;
    }
  }
  if (served != nullptr) return *served;

  // Probe outside the lock: source latency must never serialize workers.
  Result<std::vector<uint32_t>> probed = db.ExecuteRows(query);
  Rows rows;
  if (probed.ok()) {
    rows = std::make_shared<const std::vector<uint32_t>>(*probed);
  }
  std::optional<Entry> displaced;  // freed after the lock is released
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (leader) {
      mine->done = true;
      if (probed.ok()) {
        mine->rows = rows;
      } else {
        mine->status = probed.status();  // errors are never cached
      }
      stripe.EraseFlight(mine.get());
      mine->cv.notify_all();
    }
    if (probed.ok()) {
      // No thread reads a finished flight's key: the cache takes it. The
      // stripe is unbounded, so Put displaces only an overwritten entry.
      displaced = stripe.lru.Put(
          std::move(mine->key),
          Entry{std::move(rows), db.SnapshotVersion(),
                clock_.fetch_add(1, std::memory_order_relaxed)});
      inserted = !displaced.has_value();
      if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
      stripe.PublishTail();
    }
  }
  if (inserted) EvictOverCapacity();
  return probed;
}

void ProbeCache::EvictOverCapacity() {
  const int64_t capacity = static_cast<int64_t>(capacity_);
  for (;;) {
    // Claim one eviction first, so racing inserters never evict more
    // entries between them than they took the total over capacity.
    int64_t size = size_.load(std::memory_order_relaxed);
    do {
      if (size <= capacity) return;
    } while (!size_.compare_exchange_weak(size, size - 1,
                                          std::memory_order_relaxed));
    std::optional<Entry> evicted;  // freed after the lock is released
    while (!evicted.has_value()) {
      // The victim is the tail with the smallest stamp: with one thread,
      // exactly the entry a single LRU would evict.
      Stripe* victim = nullptr;
      uint64_t oldest = kNoTail;
      for (Stripe& s : stripes_) {
        const uint64_t tail = s.tail_stamp.load(std::memory_order_relaxed);
        if (tail < oldest) {
          oldest = tail;
          victim = &s;
        }
      }
      if (victim == nullptr) {
        // Every stripe is empty: a Clear() raced the claim. Give it back.
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::lock_guard<std::mutex> lock(victim->mu);
      evicted = victim->lru.EvictOldest();
      if (evicted.has_value()) {
        ++victim->stats.evictions;
        victim->PublishTail();
      }
    }
  }
}

std::shared_ptr<ProbeCache::Flight> ProbeCache::Stripe::FindFlight(
    const Key& key) const {
  for (const std::shared_ptr<Flight>& f : flights) {
    if (f->key == key) return f;
  }
  return nullptr;
}

void ProbeCache::Stripe::EraseFlight(const Flight* flight) {
  for (size_t i = 0; i < flights.size(); ++i) {
    if (flights[i].get() != flight) continue;
    // The leader still holds its flight, so this drops no last reference.
    flights[i].swap(flights.back());
    flights.pop_back();
    return;
  }
}

void ProbeCache::Stripe::PublishTail() {
  const auto* oldest = lru.Oldest();
  tail_stamp.store(oldest == nullptr ? kNoTail : oldest->second.stamp,
                   std::memory_order_relaxed);
}

Result<std::vector<Tuple>> ProbeCache::Execute(const WebDatabase& db,
                                               const SelectionQuery& query,
                                               bool* hit) {
  AIMQ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        ExecuteRows(db, query, hit));
  return db.Materialize(rows);
}

bool ProbeCache::Contains(const WebDatabase& db,
                          const SelectionQuery& query) const {
  const Key key = MakeKey(db, query);
  const Stripe& stripe = stripes_[StripeIndex(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.lru.Peek(key) != nullptr;
}

void ProbeCache::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    size_.fetch_sub(static_cast<int64_t>(s.lru.size()),
                    std::memory_order_relaxed);
    s.lru.Clear();
    s.stats = ProbeCacheStats{};
    s.PublishTail();
  }
}

size_t ProbeCache::EvictVersionsBelow(uint64_t version) {
  size_t erased = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    const size_t dropped =
        s.lru.EraseIf([version](const Key&, const Entry& e) {
          return e.version < version;
        });
    size_.fetch_sub(static_cast<int64_t>(dropped), std::memory_order_relaxed);
    s.stats.version_evictions += dropped;
    s.PublishTail();
    erased += dropped;
  }
  return erased;
}

void ProbeCache::EnableCoalescing(bool enabled) {
  coalesce_.store(enabled, std::memory_order_relaxed);
}

bool ProbeCache::coalescing_enabled() const {
  return coalesce_.load(std::memory_order_relaxed);
}

size_t ProbeCache::InFlightWaiters() const {
  size_t waiters = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& flight : s.flights) waiters += flight->waiters;
  }
  return waiters;
}

size_t ProbeCache::size() const {
  size_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.lru.size();
  }
  return total;
}

ProbeCacheStats ProbeCache::stats() const {
  ProbeCacheStats total;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total.lookups += s.stats.lookups;
    total.hits += s.stats.hits;
    total.misses += s.stats.misses;
    total.evictions += s.stats.evictions;
    total.coalesced += s.stats.coalesced;
    total.version_evictions += s.stats.version_evictions;
  }
  return total;
}

}  // namespace aimq
