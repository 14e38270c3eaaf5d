#ifndef ASUP_SUPPRESS_AS_SIMPLE_H_
#define ASUP_SUPPRESS_AS_SIMPLE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "asup/engine/answer_cache.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/pipeline/result_processor.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/search_service.h"
#include "asup/suppress/segment.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"
#include "asup/util/hash.h"

namespace asup {

class AsArbiEngine;
class AsSimpleGuardProcessor;
class AsSimpleHideProcessor;
class AsSimpleTrimProcessor;

/// Configuration of AS-SIMPLE (paper Algorithm 1).
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

/// Counters exposed for tests and the overhead experiments.
struct AsSimpleStats {
  uint64_t queries_processed = 0;
  uint64_t cache_hits = 0;
  /// Documents hidden by the per-document edge removal (line 9).
  uint64_t docs_hidden = 0;
  /// Documents trimmed by the final LHS-degree cut (line 14).
  uint64_t docs_trimmed = 0;
  /// Epoch migrations performed (corpus changed under the engine).
  uint64_t epoch_migrations = 0;
};

/// AS-SIMPLE: run-time document hiding that suppresses COUNT/SUM aggregates
/// against the SIMPLE-ADV class (all published sampling estimators) while
/// barely touching the top-k answers bona fide users see.
///
/// For each query q with match set Sel(q):
///   1. M(q) = the min(|q|, γ·k) highest-ranked matching documents.
///   2. Every document of M(q) that was returned by some earlier query is
///      *hidden* with probability 1 − μ/γ (deterministic keyed coin per
///      (query, document) edge); fresh documents are kept and marked
///      returned (Θ_R).
///   3. The surviving list is trimmed to min(|M(q)|/μ, k) documents —
///      hidden/trimmed top-k documents are thereby replaced by lower-ranked
///      survivors of M(q) when the query overflows.
///
/// Thread safety: Search may be called from concurrent workers. Θ_R is an
/// atomic bitmap (per-document test-and-set), counters are atomic, and the
/// answer cache serializes duplicate in-flight queries. The match phase is
/// read-only against the immutable index, so the engine also implements
/// PrefetchableService for BatchExecutor's deterministic parallel mode
/// (see DESIGN.md, "Threading model").
///
/// Epoch model: the suppression state (Θ_R's dense-local indexing, μ, the
/// answer cache) is pinned to one corpus epoch. When the base engine's
/// current epoch moves ahead (a CorpusManager published a delta), the next
/// query migrates the state first — Θ_R is remapped document-by-document
/// into the new local-id space (deleted documents drop out), μ is
/// recomputed from the new corpus size (the query may thereby cross a
/// segment boundary γ^i), and the answer cache is cleared (the determinism
/// guarantee of Section 2.1 is *per epoch*; answers computed under the old
/// μ must not replay). Queries take the shared side of an epoch lock,
/// migration the exclusive side, so processing always sees state and
/// snapshot in agreement (DESIGN.md §13).
class AsSimpleEngine : public PrefetchableService {
 public:
  // State persistence (suppress/state_io.h) reads and restores Θ_R and the
  // answer cache directly.
  friend bool SaveDefenseState(const AsSimpleEngine&, std::ostream&);
  friend bool LoadDefenseState(AsSimpleEngine&, std::istream&);

  /// Wraps `base` (borrowed; must outlive this engine) — any
  /// MatchingEngine: the single-index PlainSearchEngine or the sharded
  /// scatter-gather ShardedSearchService. Suppression always runs
  /// post-merge on the one logical corpus the base presents. Pins the
  /// base's current epoch.
  AsSimpleEngine(MatchingEngine& base, const AsSimpleConfig& config);

  SearchResult Search(const KeywordQuery& query) override;

  /// Read-only match phase: M(q), independent of suppression state.
  /// Pins the base's current epoch into the prefetch.
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
  /// reference without epoch_mutex_ (AS-ARBI holds its own epoch lock,
  /// which pins this engine's epoch in lockstep; tests call it quiesced),
  /// so the analysis is opted out here.
  const IndistinguishableSegment& segment() const
      ASUP_NO_THREAD_SAFETY_ANALYSIS {
    return segment_;
  }
  const AsSimpleConfig& config() const { return config_; }
  MatchingEngine& base() const { return *base_; }

  /// Epoch the suppression state is currently pinned to.
  uint64_t StateEpoch() const ASUP_EXCLUDES(epoch_mutex_);

  /// Eagerly migrates the state to the base's current epoch (queries do
  /// this lazily on their own).
  void MigrateToCurrentEpoch() ASUP_EXCLUDES(epoch_mutex_);

  /// Processes `query` strictly within `target`'s epoch. The caller
  /// (AS-ARBI) must guarantee the state is already at that epoch and hold
  /// off migrations for the duration of the call.
  SearchResult SearchPinned(const KeywordQuery& query,
                            const QueryPrefetch* prefetch,
                            const CorpusSnapshot& target)
      ASUP_EXCLUDES(epoch_mutex_);

  /// Snapshot of the processing counters (consistent only when quiesced).
  AsSimpleStats stats() const;

  /// |Θ_R|: number of documents returned (or activated) so far.
  size_t NumActivatedDocs() const ASUP_EXCLUDES(epoch_mutex_);

  /// True if `doc` is in Θ_R.
  bool IsActivated(DocId doc) const ASUP_EXCLUDES(epoch_mutex_);

 private:
  // AS-ARBI drives the inner engine through SearchPinned and MigrateTo so
  // inner and outer state always sit on the same epoch; the AS-ARBI loader
  // stages a scratch inner engine on a specific snapshot.
  friend class AsArbiEngine;
  friend bool SaveDefenseState(const AsArbiEngine&, std::ostream&);
  friend bool LoadDefenseState(AsArbiEngine&, std::istream&);
  // The pipeline stages this engine's chain is composed of (Algorithm 1
  // decomposed; suppress/processors.h). They read Θ_R, the coin, and the
  // counters through this friendship; lock-guarded inputs (snapshot,
  // segment) reach them only through the QueryContext the engine fills
  // under its epoch lock.
  friend class AsSimpleGuardProcessor;
  friend class AsSimpleHideProcessor;
  friend class AsSimpleTrimProcessor;

  /// Pins an explicit snapshot instead of the base's current one (AS-ARBI
  /// keeps its inner engine on the outer engine's epoch).
  AsSimpleEngine(MatchingEngine& base, const AsSimpleConfig& config,
                 SnapshotHandle snapshot);

  /// The read-only match phase against `snapshot`: M(q), the top γ·k
  /// matches, with |Sel(q)|. PrefetchMatches runs it on the current epoch;
  /// AS-ARBI runs it for its batch prefetches and its live misses alike.
  QueryPrefetch PrefetchMatchesIn(SnapshotHandle snapshot,
                                  const KeywordQuery& query) const;

  /// Cache-wrapped processing shared by Search and SearchPrefetched;
  /// migrates lazily until the state epoch matches the base's current one.
  SearchResult SearchImpl(const KeywordQuery& query,
                          const QueryPrefetch* prefetch)
      ASUP_EXCLUDES(epoch_mutex_);

  /// Cache claim + Process + publish against the state's pinned epoch.
  SearchResult SearchStateLocked(const KeywordQuery& query,
                                 const QueryPrefetch* prefetch)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Takes the exclusive epoch lock and migrates the state to `target`.
  void MigrateTo(const SnapshotHandle& target) ASUP_EXCLUDES(epoch_mutex_);

  /// Θ_R remap + μ recompute + cache clear.
  void MigrateStateLocked(const SnapshotHandle& target)
      ASUP_REQUIRES(epoch_mutex_);

  MatchingEngine* base_;
  AsSimpleConfig config_;
  /// Guards the epoch-pinned state below (snapshot_, segment_,
  /// returned_before_'s indexing, and the answer cache's validity): shared
  /// for query processing, exclusive for migration.
  mutable SharedMutex epoch_mutex_;
  /// The epoch the suppression state is expressed against.
  SnapshotHandle snapshot_ ASUP_GUARDED_BY(epoch_mutex_);
  IndistinguishableSegment segment_ ASUP_GUARDED_BY(epoch_mutex_);
  DeterministicCoin coin_;
  size_t m_limit_;  // γ·k, the size cap of M(q)
  /// Θ_R, indexed by dense local doc id. Internally synchronized
  /// (per-bit atomic test-and-set), so deliberately NOT ASUP_GUARDED_BY:
  /// the analysis would reject the legal TestAndSet under the shared side
  /// (any non-const call counts as a write). epoch_mutex_ guards only its
  /// *reassignment* during migration, which holds the exclusive side.
  AtomicBitmap returned_before_;
  /// Internally synchronized (sharded mutexes of its own); epoch_mutex_
  /// orders its Clear() against in-flight queries, not its field access.
  AnswerCache answer_cache_;
  struct {
    std::atomic<uint64_t> queries_processed{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> docs_hidden{0};
    std::atomic<uint64_t> docs_trimmed{0};
    std::atomic<uint64_t> epoch_migrations{0};
  } stats_;
  /// Algorithm 1 as a processor chain: match → guard → hide → trim →
  /// emulated status → record. Composed once at construction, immutable
  /// afterwards; run per query under the shared epoch lock.
  ProcessorChain chain_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_AS_SIMPLE_H_
