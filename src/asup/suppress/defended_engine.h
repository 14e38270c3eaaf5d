#ifndef ASUP_SUPPRESS_DEFENDED_ENGINE_H_
#define ASUP_SUPPRESS_DEFENDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "asup/engine/answer_cache.h"
#include "asup/engine/parallel_service.h"
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
  /// interleaving. Governs the one answer cache of every defense built on
  /// these parameters. Disable only for ablation measurements.
  bool cache_answers = true;
};

/// The one host every run-time defense is built on. It owns what the
/// defenses share, written once:
///
///  - the base engine and the epoch the suppression state is pinned to:
///    the snapshot, its indistinguishable segment (μ), and the epoch lock;
///  - the defense state objects (Θ_R always, the query history for AS-ARBI
///    and AS-DECLINE), migrated together when the corpus moves on;
///  - the answer cache and its claim → answer → publish sequence, which
///    abandons the claim if anything after it throws;
///  - the prefetch/commit split BatchExecutor's deterministic mode uses;
///  - the answer path: Algorithm 1 for every defense, behind Algorithm 2's
///    cover trigger for a defense with a history, its counters, and the
///    defense events, emitted once per answered query.
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
  /// What a defense with a history does with a query its history covers.
  enum class CoverAction {
    kAnswerVirtually,  // AS-ARBI: answer from the covering answers
    kDecline,          // AS-DECLINE: refuse the query (kDeclined)
  };

  /// Wraps `base` (borrowed; must outlive this engine) — any
  /// MatchingEngine: the single-index PlainSearchEngine or the sharded
  /// ShardedSearchService; suppression runs post-merge on the one logical
  /// corpus the base presents. Pins the base's current epoch. `history` is
  /// null for AS-SIMPLE, which never evaluates a cover, so `on_cover`
  /// matters only with a history.
  DefendedEngine(MatchingEngine& base, const AsSimpleConfig& config,
                 std::unique_ptr<QueryHistory> history = nullptr,
                 CoverAction on_cover = CoverAction::kAnswerVirtually);

  /// Counters of the answer path; each defense's stats() reads the ones it
  /// bumps. Relaxed, so consistent only when quiesced.
  struct Counters {
    std::atomic<uint64_t> queries_processed{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> epoch_migrations{0};
    /// Misses a history did not cover, answered by Algorithm 1.
    std::atomic<uint64_t> simple_answers{0};
    /// AS-ARBI: size-plausible cover triggers, and virtual answers.
    std::atomic<uint64_t> trigger_evaluations{0};
    std::atomic<uint64_t> virtual_answers{0};
    /// AS-DECLINE: covered queries refused.
    std::atomic<uint64_t> declined{0};
  };
  const Counters& counters() const { return counters_; }

  /// The AS-SIMPLE parameters as given to the constructor.
  const AsSimpleConfig& simple_config() const { return config_; }
  const ReturnedSet& returned() const { return returned_; }
  /// Only for AS-ARBI and AS-DECLINE, which construct the host with one.
  const QueryHistory& history_state() const { return *history_; }

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

  /// Cache claim, answer, events and publish against the pinned epoch.
  SearchResult SearchStateLocked(const KeywordQuery& query,
                                 const QueryPrefetch* prefetch)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// What the answer path decided for one miss: the inputs of the defense
  /// events, emitted once the answer is final.
  struct DefenseRecord {
    size_t sel_size = 0;  // |Sel(q)|
    /// Answered by Algorithm 1: the query gets a segment probe.
    bool simple_path = false;
    uint64_t docs_hidden = 0;
    uint64_t docs_trimmed = 0;
    bool cover_found = false;  // AS-ARBI only
    size_t cover_answers = 0;  // historic answers in the cover
    bool virtual_answered = false;
  };

  /// The answer of a miss, Algorithms 1 and 2 top to bottom: the underflow
  /// guard; for a defense with a history, the cover trigger and a virtual
  /// answer or a refusal; otherwise hide → trim → emulated status, then the
  /// history record.
  SearchResult Answer(const KeywordQuery& query, const QueryPrefetch& prefetch,
                      DefenseRecord& record)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Algorithm 2 lines 1-5, shared by AS-DECLINE up to the answer: true
  /// when at most m historic answers σ-cover Sel(q), with `result` set to
  /// the virtual answer or the refusal; false when q falls through to
  /// Algorithm 1.
  bool AnswerFromHistory(const KeywordQuery& query,
                         const QueryPrefetch& prefetch, DefenseRecord& record,
                         SearchResult& result)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Virtual query processing: q ∩ (Res(q1) ∪ ... ∪ Res(qu)), ranked by
  /// the base engine and capped at k.
  SearchResult VirtualAnswer(const KeywordQuery& query,
                             const std::vector<DocId>& match_ids,
                             const std::vector<DocId>& pool,
                             DefenseRecord& record)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Algorithm 1 lines 7-13: per-document edge removal against Θ_R with
  /// the keyed deterministic coin. Returns the survivors; all of M(q)
  /// enters Θ_R.
  std::vector<ScoredDoc> Hide(const KeywordQuery& query,
                              const RankedMatches& ranked,
                              DefenseRecord& record)
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Algorithm 1 line 14: trims `docs` to min(|M(q)|/μ, k).
  void Trim(size_t m_size, std::vector<ScoredDoc>& docs,
            DefenseRecord& record) ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Status in the *emulated* corpus, where q matches |Sel(q)|/μ
  /// documents: underflow for an empty answer, else overflow iff
  /// |Sel(q)| > μ·k.
  QueryStatus EmulatedStatus(const std::vector<ScoredDoc>& docs,
                             size_t sel_size) const
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Emits the defense events the watchtower consumes, in a fixed order:
  /// hidden → segment probe → trimmed → cover → virtual.
  void EmitDefenseEvents(const KeywordQuery& query,
                         const DefenseRecord& record,
                         const SearchResult& result) const
      ASUP_REQUIRES_SHARED(epoch_mutex_);

  /// Takes the exclusive epoch lock and migrates every state object, μ and
  /// the cache to `target`.
  void MigrateTo(const SnapshotHandle& target) ASUP_EXCLUDES(epoch_mutex_);

  MatchingEngine* base_;
  AsSimpleConfig config_;
  CoverAction on_cover_;
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
  Counters counters_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_DEFENDED_ENGINE_H_
