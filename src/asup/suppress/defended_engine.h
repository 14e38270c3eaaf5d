#ifndef ASUP_SUPPRESS_DEFENDED_ENGINE_H_
#define ASUP_SUPPRESS_DEFENDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "asup/engine/answer_cache.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/engine/search_engine.h"
#include "asup/suppress/defense_state.h"
#include "asup/suppress/segment.h"
#include "asup/util/annotated_mutex.h"

namespace asup {

class AsArbiEngine;
class AsSimpleEngine;

/// Configuration of AS-SIMPLE (paper Algorithm 1), which every defense
/// runs on its answer path.
struct AsSimpleConfig {
  /// Obfuscation factor γ > 1. Larger γ = more stringent suppression,
  /// lower utility (paper Theorems 4.1 / 4.2).
  double gamma = 2.0;

  /// Secret key for the deterministic per-edge coins. Must stay
  /// server-side: an adversary knowing the key could replay the coins.
  uint64_t secret_key = 0x517bd152a1c7d9e3ULL;

  /// Cache final answers per canonical query so that re-issuing a query
  /// returns the identical answer (the deterministic-processing requirement
  /// of Section 2.1). Under concurrency the cache also serializes duplicate
  /// in-flight queries, so "same query ⇒ same answer" holds regardless of
  /// interleaving. Disable only for ablation measurements.
  bool cache_answers = true;
};

/// The one host every run-time defense is built on. It owns what the
/// defenses share, written once:
///
///  - the base engine and the epoch the suppression state is pinned to:
///    the snapshot, its indistinguishable segment (μ), and the epoch lock;
///  - the defense state objects (Θ_R always, the query history for AS-ARBI
///    and AS-DECLINE), migrated together when the corpus moves on;
///  - the answer cache and its claim → chain → publish sequence, which
///    abandons the claim if anything after it throws;
///  - the prefetch/commit split BatchExecutor's deterministic mode uses;
///  - the ProcessorChain each defense composes in its constructor, and the
///    queries / cache-hit / migration counters.
///
/// Thread safety: Search may be called from concurrent workers. Queries
/// take the shared side of the epoch lock, migration the exclusive side,
/// so processing always sees state and snapshot in agreement. The state
/// objects synchronize internally (atomic Θ_R; the history's own lock,
/// always taken after the epoch lock: DESIGN.md §14).
///
/// Epoch model: when the base engine's current epoch moves ahead (a
/// CorpusManager published a delta), the next query — or an explicit
/// MigrateToCurrentEpoch — migrates every state object, recomputes μ from
/// the new corpus size, and clears the answer cache: the determinism
/// guarantee of Section 2.1 holds per epoch, and answers computed over the
/// old corpus must not replay.
class DefendedEngine : public PrefetchableService {
 public:
  SearchResult Search(const KeywordQuery& query) override;

  /// Read-only match phase: M(q), the top γ·k matches with |Sel(q)|, and,
  /// for defenses with a history whose trigger is size-plausible, every
  /// match id. Independent of suppression state; pins the base's current
  /// epoch into the prefetch.
  QueryPrefetch PrefetchMatches(const KeywordQuery& query) const override;

  /// Stateful phase of Search, fed a prefetched M(q). A prefetch from a
  /// different epoch than the one the commit runs in is discarded and the
  /// match phase recomputed live.
  SearchResult SearchPrefetched(const KeywordQuery& query,
                                const QueryPrefetch& prefetch) override;

  bool HasCachedAnswer(const KeywordQuery& query) const override;

  size_t k() const override { return base_->k(); }

  /// Segment arithmetic of the *state's* epoch. Stable while queries are
  /// in flight on this epoch; changes under migration. Hands out a
  /// reference without the epoch lock (callers are quiesced), so the
  /// analysis is opted out here.
  const IndistinguishableSegment& segment() const
      ASUP_NO_THREAD_SAFETY_ANALYSIS {
    return segment_;
  }

  /// Epoch the suppression state is currently pinned to.
  uint64_t StateEpoch() const ASUP_EXCLUDES(epoch_mutex_);

  /// Eagerly migrates the state to the base's current epoch (queries do
  /// this lazily on their own).
  void MigrateToCurrentEpoch() ASUP_EXCLUDES(epoch_mutex_);

  /// |Θ_R|: number of documents returned (or activated) so far.
  size_t NumActivatedDocs() const ASUP_EXCLUDES(epoch_mutex_);

  /// True if `doc` is in Θ_R.
  bool IsActivated(DocId doc) const ASUP_EXCLUDES(epoch_mutex_);

 protected:
  /// Wraps `base` (borrowed; must outlive this engine) — any
  /// MatchingEngine: the single-index PlainSearchEngine or the sharded
  /// ShardedSearchService; suppression runs post-merge on the one logical
  /// corpus the base presents. Pins the base's current epoch. `history` is
  /// null for AS-SIMPLE. `config.cache_answers` is ignored in favour of
  /// `cache_answers`.
  DefendedEngine(MatchingEngine& base, const AsSimpleConfig& config,
                 bool cache_answers, std::unique_ptr<QueryHistory> history);

  /// Appends Algorithm 1's stages — guard → hide → trim → emulated status —
  /// to the chain.
  void AddSimpleStages();

  /// The AS-SIMPLE parameters as given to the constructor.
  const AsSimpleConfig& simple_config() const { return config_; }
  ReturnedSet& returned() { return returned_; }
  const ReturnedSet& returned() const { return returned_; }
  /// Only for AS-ARBI and AS-DECLINE, which construct the host with one.
  QueryHistory& history_state() { return *history_; }
  const QueryHistory& history_state() const { return *history_; }

  uint64_t queries_processed() const {
    return queries_processed_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t epoch_migrations() const {
    return epoch_migrations_.load(std::memory_order_relaxed);
  }

  /// The defense's pipeline, composed once by the subclass constructor and
  /// immutable afterwards; run per query under the shared epoch lock.
  ProcessorChain chain_;

 private:
  // State persistence (suppress/state_io.h) writes and reads the host's
  // sections. AS-DECLINE has no persistence format.
  friend bool SaveDefenseState(const AsSimpleEngine&, std::ostream&);
  friend bool LoadDefenseState(AsSimpleEngine&, std::istream&);
  friend bool SaveDefenseState(const AsArbiEngine&, std::ostream&);
  friend bool LoadDefenseState(AsArbiEngine&, std::istream&);

  /// Writes the fingerprinted state sections and the answer cache; the
  /// format is defined in state_io.cc. Callers are quiesced.
  bool SaveState(std::ostream& out) const;
  /// Reads what SaveState wrote. On failure the engine is unchanged.
  /// Callers are quiesced.
  bool LoadState(std::istream& in);

  /// The match phase against `snapshot`: M(q) with |Sel(q)|.
  QueryPrefetch MatchPhase(SnapshotHandle snapshot,
                           const KeywordQuery& query) const;

  /// Migrates lazily until the state epoch matches the base's current one,
  /// then processes the query.
  SearchResult SearchImpl(const KeywordQuery& query,
                          const QueryPrefetch* prefetch)
      ASUP_EXCLUDES(epoch_mutex_);

  /// Cache claim, chain and publish against the pinned epoch.
  SearchResult SearchStateLocked(const KeywordQuery& query,
                                 const QueryPrefetch* prefetch)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Takes the exclusive epoch lock and migrates every state object, μ and
  /// the cache to `target`.
  void MigrateTo(const SnapshotHandle& target) ASUP_EXCLUDES(epoch_mutex_);

  MatchingEngine* base_;
  AsSimpleConfig config_;
  bool cache_answers_;
  size_t m_limit_;  // γ·k, the size cap of M(q)
  /// Guards the epoch-pinned state below (snapshot_, segment_, the state
  /// objects' indexing, and the answer cache's validity): shared for
  /// query processing, exclusive for migration.
  mutable SharedMutex epoch_mutex_;
  SnapshotHandle snapshot_ ASUP_GUARDED_BY(epoch_mutex_);
  IndistinguishableSegment segment_ ASUP_GUARDED_BY(epoch_mutex_);
  /// The state objects synchronize internally, so they are deliberately
  /// not ASUP_GUARDED_BY: epoch_mutex_ orders their migration against
  /// in-flight queries, not their field access.
  ReturnedSet returned_;
  std::unique_ptr<QueryHistory> history_;
  /// returned_, then history_ when present: the order of migration and of
  /// the persisted sections.
  std::vector<DefenseState*> states_;
  /// Internally synchronized; epoch_mutex_ orders its Clear() against
  /// in-flight queries.
  AnswerCache answer_cache_;
  std::atomic<uint64_t> queries_processed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> epoch_migrations_{0};
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_DEFENDED_ENGINE_H_
