#ifndef FOOFAH_HEURISTIC_HEURISTIC_CACHE_H_
#define FOOFAH_HEURISTIC_HEURISTIC_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace foofah {

/// A concurrent memo table for heuristic estimates, keyed by the pair
/// (state content hash, goal content hash). The TED dynamic program is by
/// far the most expensive step of node evaluation, and the search graph
/// reaches the same table through many paths — every such re-visit (and
/// every re-expansion when deduplicate_states is off) would otherwise pay
/// the full DP again. Heuristics are pure functions of (state, goal), so a
/// memo hit is exact, not approximate; the only inaccuracy risk is a
/// 128-bit key collision, which FNV-1a over full cell contents makes
/// negligible for the table sizes Foofah targets. As a belt-and-braces
/// guard, every entry also carries the caller's checksum (the state's
/// shape fingerprint): a resident entry whose checksum disagrees with the
/// lookup's is a detected collision and is reported as a miss (and counted
/// in Stats::collisions) instead of silently serving another state's
/// estimate. Only a same-shape content collision could still slip through;
/// disabling the memo entirely (SearchOptions::cache_heuristic = false,
/// `--no-cache` in the CLI) remains the escape hatch.
///
/// The table is split into shards, each with its own mutex and map, so the
/// parallel expansion threads rarely contend. Capacity is enforced per
/// shard (total capacity / shard count): a full shard evicts an arbitrary
/// resident entry per insert, which keeps the memo bounded without
/// LRU bookkeeping on the hot path.
///
/// All methods are thread-safe. Estimates cached under one goal hash never
/// collide with another goal's, so a single cache instance can be shared
/// across searches with different goals (the incremental §5.2 driver grows
/// the example every round and reuses one cache across rounds).
///
/// A search uses a cache only where it can hit: one shared by its caller
/// (the §5.2 interaction rounds, the staged guided->exact search, the
/// service's warm cache), or a private one in the parallel engine, which
/// estimates children before deduplicating them, and in a search without
/// deduplication. A serial deduplicating search estimates each distinct
/// state once, so a private cache there would only ever miss; it keeps
/// none (see SearchOptions::cache_heuristic).
class HeuristicCache {
 public:
  /// Aggregate counters since construction (or the last Clear()).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;    ///< Lookups that found nothing (collisions incl.).
    uint64_t collisions = 0; ///< Hash hits rejected by checksum mismatch.
    uint64_t evictions = 0; ///< Entries displaced by capacity pressure.
    size_t entries = 0;     ///< Currently resident estimates.
  };

  static constexpr size_t kDefaultCapacity = 1u << 20;
  static constexpr int kDefaultShards = 16;

  /// `capacity` bounds the total resident entries (rounded up to at least
  /// one per shard); `num_shards` is rounded up to a power of two.
  explicit HeuristicCache(size_t capacity = kDefaultCapacity,
                          int num_shards = kDefaultShards);

  HeuristicCache(const HeuristicCache&) = delete;
  HeuristicCache& operator=(const HeuristicCache&) = delete;

  /// The cached estimate for (state_hash, goal_hash), or nullopt. Counts a
  /// hit or a miss. A resident entry whose stored checksum differs from
  /// `checksum` is a detected hash collision: it is reported as a miss
  /// (plus a collision) rather than served.
  std::optional<double> Lookup(uint64_t state_hash, uint64_t goal_hash,
                               uint64_t checksum);

  /// Memoizes `estimate` tagged with `checksum`; overwrites any previous
  /// value for the key (the value is identical anyway for a pure heuristic
  /// unless the key collided, in which case last-writer-wins is as good as
  /// any policy for an unrepresentable pair). Evicts when the shard is at
  /// capacity.
  void Insert(uint64_t state_hash, uint64_t goal_hash, uint64_t checksum,
              double estimate);

  /// Drops every entry and resets the counters.
  void Clear();

  Stats stats() const;
  size_t capacity() const { return shard_capacity_ * shards_.size(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Key {
    uint64_t state_hash;
    uint64_t goal_hash;
    friend bool operator==(const Key& a, const Key& b) {
      return a.state_hash == b.state_hash && a.goal_hash == b.goal_hash;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix64-style finalizer over the combined words; the state hash
      // alone already spreads well, the goal hash decorrelates searches.
      uint64_t x = k.state_hash ^ (k.goal_hash * 0x9E3779B97F4A7C15ull);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    double estimate;
    uint64_t checksum;  ///< The state's shape fingerprint at insert time.
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  Shard& ShardFor(const Key& key) {
    // High bits pick the shard so the map's bucket index (low bits) stays
    // uncorrelated with shard membership.
    return shards_[(KeyHash{}(key) >> 32) & shard_mask_];
  }

  std::vector<Shard> shards_;
  size_t shard_mask_;
  size_t shard_capacity_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> collisions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace foofah

#endif  // FOOFAH_HEURISTIC_HEURISTIC_CACHE_H_
