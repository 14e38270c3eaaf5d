#ifndef ASUP_SUPPRESS_DEFENSE_STATE_H_
#define ASUP_SUPPRESS_DEFENSE_STATE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "asup/index/corpus_manager.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/atomic_bitmap.h"
#include "asup/util/hash.h"

namespace asup {

/// Suppression state pinned to one corpus epoch. The DefendedEngine host
/// owns the epoch and drives every state object through the same three
/// operations; Save and Load write and read the object's section of the
/// persisted snapshot (the format lives in suppress/state_io.cc).
class DefenseState {
 public:
  virtual ~DefenseState() = default;

  /// Carries the state from epoch `from` to epoch `to`; returns the
  /// number of entries dropped because their documents left the corpus.
  /// The host holds its epoch lock exclusively.
  virtual size_t Migrate(const CorpusSnapshot& from,
                         const CorpusSnapshot& to) = 0;

  /// Writes this state's section, expressed against `snapshot` (the
  /// state's epoch). Callers are quiesced.
  virtual void Save(const CorpusSnapshot& snapshot,
                    std::ostream& out) const = 0;

  /// Reads a section written by Save. Returns false on corruption and
  /// leaves the state unchanged. Callers are quiesced.
  virtual bool Load(const CorpusSnapshot& snapshot, std::istream& in) = 0;
};

/// Θ_R, the documents some answer has returned or activated, indexed by
/// dense local id of the state's epoch, together with the keyed coin of
/// Algorithm 1's edge removal and the hide/trim counters.
///
/// Internally synchronized: per-bit atomic test-and-set and atomic
/// counters, so the hide stage runs under the shared side of the host's
/// epoch lock. Only Migrate and Load replace the bitmap, under the
/// exclusive side or quiesced.
class ReturnedSet final : public DefenseState {
 public:
  ReturnedSet(size_t num_docs, uint64_t secret_key)
      : bits_(num_docs), coin_(secret_key) {}

  /// Marks the document at `local`; true if it was already in Θ_R.
  bool TestAndSet(size_t local) { return bits_.TestAndSet(local); }
  bool Test(size_t local) const { return bits_.Test(local); }
  /// |Θ_R|.
  size_t Count() const { return bits_.Count(); }

  const DeterministicCoin& coin() const { return coin_; }

  void CountHidden(uint64_t docs) {
    docs_hidden_.fetch_add(docs, std::memory_order_relaxed);
  }
  void CountTrimmed(uint64_t docs) {
    docs_trimmed_.fetch_add(docs, std::memory_order_relaxed);
  }
  uint64_t docs_hidden() const {
    return docs_hidden_.load(std::memory_order_relaxed);
  }
  uint64_t docs_trimmed() const {
    return docs_trimmed_.load(std::memory_order_relaxed);
  }

  /// Remaps every activated bit by universe DocId; documents deleted by
  /// the delta drop out.
  size_t Migrate(const CorpusSnapshot& from,
                 const CorpusSnapshot& to) override;
  void Save(const CorpusSnapshot& snapshot, std::ostream& out) const override;
  bool Load(const CorpusSnapshot& snapshot, std::istream& in) override;

 private:
  AtomicBitmap bits_;
  DeterministicCoin coin_;
  std::atomic<uint64_t> docs_hidden_{0};
  std::atomic<uint64_t> docs_trimmed_{0};
};

/// The record of disclosed answers behind Algorithm 2's cover trigger
/// (AS-ARBI) and Section 5.2's decline trigger (AS-DECLINE): the history
/// store, the lock that guards it, the cover search over it, and two
/// lock-free prescreen mirrors.
///
/// Thread safety: cover searches take the shared side of the history lock,
/// recording and compaction the exclusive side. The lock is private and no
/// method calls out while holding it, so it is always the innermost lock:
/// the host's epoch lock comes first (DESIGN.md §14). The mirrors of
/// NumQueries / NumDocumentsSeen may lag the store, which only makes the
/// prescreen more conservative.
class QueryHistory final : public DefenseState {
 public:
  /// Cover size m ≥ 1 and cover ratio σ ∈ (0, 1] (paper Equation 6); `k`
  /// is the interface's result limit.
  QueryHistory(size_t cover_size, double cover_ratio, size_t k);

  double cover_ratio() const { return cover_ratio_; }

  /// True when m historic answers of at most k documents each could reach
  /// σ·|Sel(q)| documents: a pure size argument, no state involved.
  bool TriggerPlausible(size_t match_count) const;

  /// Lock-free prescreen: false when no cover can exist yet, because
  /// nothing is recorded or fewer documents were ever disclosed than the
  /// coverage target ⌈σ·|Sel(q)|⌉.
  bool MayCover(size_t match_count) const;

  /// The cover search (paper Equation 6) under the shared history lock.
  /// On success, and when `pool` is given, the union of the covering
  /// answers is written to it, ascending, before the lock is released.
  CoverResult FindCover(const std::vector<DocId>& match_ids,
                        std::vector<DocId>* pool) const
      ASUP_EXCLUDES(mutex_);

  /// Records a disclosed answer under the exclusive history lock.
  void Record(const KeywordQuery& query, std::vector<DocId> answer)
      ASUP_EXCLUDES(mutex_);

  /// Quiesced accessor for tests and experiments: hands out the store
  /// without its lock, so the analysis is opted out here.
  const HistoryStore& store() const ASUP_NO_THREAD_SAFETY_ANALYSIS {
    return store_;
  }

  /// Drops deleted documents from every recorded answer and removes
  /// answers left empty, keeping the record order.
  size_t Migrate(const CorpusSnapshot& from, const CorpusSnapshot& to) override
      ASUP_EXCLUDES(mutex_);
  void Save(const CorpusSnapshot& snapshot, std::ostream& out) const override;
  bool Load(const CorpusSnapshot& snapshot, std::istream& in) override;

 private:
  /// Refreshes the prescreen mirrors and gauges from the store.
  void PublishSizesLocked() ASUP_REQUIRES(mutex_);

  size_t cover_size_;
  double cover_ratio_;
  size_t k_;
  mutable SharedMutex mutex_;
  HistoryStore store_ ASUP_GUARDED_BY(mutex_);
  /// Traverses store_ internally; FindCover holds mutex_ around it (the
  /// analysis cannot see through the stored reference).
  CoverFinder finder_;
  std::atomic<size_t> queries_{0};
  std::atomic<size_t> docs_seen_{0};
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_DEFENSE_STATE_H_
