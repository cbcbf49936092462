#ifndef HYPPO_COMMON_ANTICHAIN_H_
#define HYPPO_COMMON_ANTICHAIN_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hyppo {

/// \brief Wordwise bitset-subset test: true iff b ⊆ a. Both vectors must
/// have the same word count (one search space = one fixed bitset width).
inline bool BitsetContains(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != b[i]) {
      return false;
    }
  }
  return true;
}

/// \brief Antichain-per-key dominance table.
///
/// Keys partition the state space (the optimizer keys by the exact search
/// frontier); within one key the table keeps an *antichain* of
/// (bitset, cost) entries under the dominance partial order
///
///   A dominates B  ⇔  A.bits ⊇ B.bits  ∧  A.cost ≤ B.cost.
///
/// Unlike a flat best-cost-per-full-state map, which only prunes exact
/// revisits, the antichain prunes every state whose progress bitset is a
/// subset of a recorded state that was reached at most as expensively —
/// the downset-quotient idea from antichain-based games/automata solvers
/// (acacia-bonsai line of work), applied to best-first plan search.
///
/// Inserting a new entry erases recorded entries it dominates, so each
/// bucket stays an antichain and lookups stay proportional to the number
/// of incomparable frontiersome states, not all states ever seen.
///
/// Not thread-safe: one table belongs to one search call on one thread.
template <typename Key, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class AntichainTable {
 public:
  /// Insert-unless-dominated: records (bits, cost) for `key` unless an
  /// entry with a superset bitset and cost <= `cost` already exists, in
  /// which case the probe is dominated and false is returned. On
  /// insertion, entries the new one dominates are erased.
  bool Improve(const Key& key, const std::vector<uint64_t>& bits,
               double cost) {
    Bucket& bucket = map_[key];
    for (const Entry& entry : bucket) {
      if (entry.cost <= cost && BitsetContains(entry.bits, bits)) {
        return false;
      }
    }
    // Swap-erase entries the new state dominates; order within a bucket
    // carries no meaning.
    for (size_t i = 0; i < bucket.size();) {
      if (cost <= bucket[i].cost && BitsetContains(bits, bucket[i].bits)) {
        bucket[i] = std::move(bucket.back());
        bucket.pop_back();
      } else {
        ++i;
      }
    }
    bucket.push_back(Entry{bits, cost});
    return true;
  }

  /// Minimum cost over recorded entries whose bitset contains `bits`
  /// (i.e. states at least as advanced), or `fallback` if none. A state
  /// popped from an open list is stale when this is strictly below its
  /// own cost: some recorded state supersedes it.
  double BestDominating(const Key& key, const std::vector<uint64_t>& bits,
                        double fallback) const {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return fallback;
    }
    double best = fallback;
    for (const Entry& entry : it->second) {
      if (entry.cost < best && BitsetContains(entry.bits, bits)) {
        best = entry.cost;
      }
    }
    return best;
  }

  /// Total number of antichain entries across all keys.
  int64_t size() const {
    int64_t total = 0;
    for (const auto& [key, bucket] : map_) {
      total += static_cast<int64_t>(bucket.size());
    }
    return total;
  }

  /// Number of distinct keys (antichain buckets).
  int64_t num_keys() const { return static_cast<int64_t>(map_.size()); }

 private:
  struct Entry {
    std::vector<uint64_t> bits;
    double cost = 0.0;
  };
  using Bucket = std::vector<Entry>;

  std::unordered_map<Key, Bucket, Hash, Eq> map_;
};

}  // namespace hyppo

#endif  // HYPPO_COMMON_ANTICHAIN_H_
