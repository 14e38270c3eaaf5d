#ifndef ASUP_ENGINE_ANSWER_CACHE_H_
#define ASUP_ENGINE_ANSWER_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asup/engine/search_service.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/hash.h"

namespace asup {

/// A sharded, thread-safe memo table from canonical query strings to final
/// answers.
///
/// This cache *is* the determinism guarantee of Section 2.1 under
/// concurrency: the first caller to claim a key computes the answer while
/// every concurrent caller of the same query blocks until the answer is
/// published — so a query observably has exactly one answer, regardless of
/// how racing threads interleave. Keys are hash-partitioned across a
/// power-of-two shard array, so distinct queries rarely contend.
///
/// Lock discipline (compiler-checked, DESIGN.md §14): each shard embeds its
/// own `Mutex` and its map is `ASUP_GUARDED_BY` it — the annotation needs a
/// statically nameable capability, which is why the mutex lives inside the
/// shard struct rather than in a parallel table of mutexes.
class AnswerCache {
 public:
  explicit AnswerCache(size_t min_shards = 16);

  enum class Claim {
    /// The answer was already computed (or became ready while waiting);
    /// it has been copied to the out parameter.
    kHit,
    /// The caller owns the key and must call Publish (or Abandon).
    kOwned,
  };

  /// Looks the key up; claims it if absent. Blocks while another thread
  /// holds the claim.
  Claim LookupOrClaim(const std::string& key, SearchResult* out);

  /// Completes a claim: stores the answer and wakes waiters.
  void Publish(const std::string& key, const SearchResult& result);

  /// Releases a claim without an answer (compute failed); wakes waiters,
  /// which then race to re-claim.
  void Abandon(const std::string& key);

  /// True if a *ready* answer is cached. Never blocks, never claims.
  bool Contains(const std::string& key) const;

  /// Number of ready answers.
  size_t size() const;

  /// Drops everything, including in-flight claims. Callers must be
  /// quiesced (used by state persistence).
  void Clear();

  /// Inserts a ready answer directly (state restore; callers quiesced).
  void Insert(const std::string& key, SearchResult result);

  /// Copies all ready entries (state save; callers quiesced).
  std::vector<std::pair<std::string, SearchResult>> Snapshot() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    SearchResult result;
    bool ready = false;
  };

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::string, Entry> map ASUP_GUARDED_BY(mutex);
    std::condition_variable ready_cv;
  };

  Shard& ShardFor(const std::string& key) const {
    return shards_[Mix64(HashString(key)) & shard_mask_];
  }

  uint64_t shard_mask_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_ANSWER_CACHE_H_
