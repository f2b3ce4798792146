// Intrusive-list LRU cache. One implementation backs both caching layers of
// the query path: the engine's Answer() result cache and each stripe of the
// probe cache in front of WebDatabase::Execute (src/webdb/probe_cache.h).
// Not thread-safe by itself — callers that share an LruCache across threads
// wrap it in a mutex (each ProbeCache stripe does).

#ifndef AIMQ_UTIL_LRU_H_
#define AIMQ_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace aimq {

/// \brief Bounded map with least-recently-used eviction.
///
/// Get() and Put() refresh recency. Capacity 0 means "hold nothing": every
/// Put is dropped, every Get misses.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity = 0) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Entries evicted to make room since construction / the last Clear().
  uint64_t evictions() const { return evictions_; }

  /// Shrinking evicts the least recently used entries first.
  void set_capacity(size_t capacity) {
    capacity_ = capacity;
    EvictDownToCapacity();
  }

  /// Pointer to the cached value (refreshed to most-recent), or nullptr on
  /// miss. The pointer is invalidated by the next non-const call.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Get() without refreshing recency (diagnostics/tests).
  const V* Peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Inserts or overwrites, refreshing recency and evicting as needed.
  /// Returns the value the call displaced — the overwritten one, the
  /// evicted least recently used one, or \p value itself at capacity 0 —
  /// so a caller holding a lock can destroy it after releasing the lock.
  /// A full cache reuses the evicted entry's nodes for the new one.
  std::optional<V> Put(K key, V value) {
    if (capacity_ == 0) return std::optional<V>(std::move(value));
    auto it = index_.find(key);
    if (it != index_.end()) {
      std::swap(it->second->second, value);
      items_.splice(items_.begin(), items_, it->second);
      return std::optional<V>(std::move(value));
    }
    if (items_.size() >= capacity_) {
      auto last = std::prev(items_.end());
      auto node = index_.extract(last->first);
      std::swap(last->first, key);
      std::swap(last->second, value);
      items_.splice(items_.begin(), items_, last);
      node.key() = last->first;
      node.mapped() = last;
      index_.insert(std::move(node));
      ++evictions_;
      return std::optional<V>(std::move(value));
    }
    items_.emplace_front(std::move(key), std::move(value));
    index_.emplace(items_.front().first, items_.begin());
    return std::nullopt;
  }

  /// The least recently used entry, or nullptr when empty. Invalidated by
  /// the next non-const call.
  const std::pair<K, V>* Oldest() const {
    return items_.empty() ? nullptr : &items_.back();
  }

  /// Evicts the least recently used entry (counted in evictions()) and
  /// returns its value, or nullopt when empty. Lets a caller that bounds
  /// several LruCaches by one shared budget pick the victim itself.
  std::optional<V> EvictOldest() {
    if (items_.empty()) return std::nullopt;
    std::optional<V> value(std::move(items_.back().second));
    index_.erase(items_.back().first);
    items_.pop_back();
    ++evictions_;
    return value;
  }

  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    items_.erase(it->second);
    index_.erase(it);
    return true;
  }

  /// Erases every entry for which \p pred(key, value) is true, preserving
  /// the recency order of survivors. Returns the number erased. Not counted
  /// in evictions(): these are caller-requested drops, not capacity
  /// pressure.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(it->first, it->second)) {
        index_.erase(it->first);
        it = items_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  void Clear() {
    items_.clear();
    index_.clear();
    evictions_ = 0;
  }

 private:
  void EvictDownToCapacity() {
    while (items_.size() > capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      ++evictions_;
    }
  }

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::list<std::pair<K, V>> items_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
};

}  // namespace aimq

#endif  // AIMQ_UTIL_LRU_H_
