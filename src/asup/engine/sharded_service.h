#ifndef ASUP_ENGINE_SHARDED_SERVICE_H_
#define ASUP_ENGINE_SHARDED_SERVICE_H_

#include <functional>
#include <memory>
#include <vector>

#include "asup/engine/scoring.h"
#include "asup/engine/search_engine.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/sharded_index.h"
#include "asup/util/thread_pool.h"

namespace asup {

/// Scatter-gather query engine over a ShardedInvertedIndex: fans the match
/// + local top-k scoring phase out across shards (on a ThreadPool when one
/// is attached, serially otherwise), then merges the per-shard candidates
/// into the exact global ranking before anything downstream sees them.
///
/// Exactness, not approximation: every shard scores its matches with the
/// *global* ScoringContext (corpus-wide document count, average length and
/// per-term document frequencies), and the ranking order RankBefore is a
/// strict total order, so a shard's local top-`limit` superset of the
/// global top-`limit` merges into bitwise the same answer a single-index
/// PlainSearchEngine produces. The per-shard work writes to preallocated
/// per-shard slots and reads only immutable state, so results are
/// independent of worker scheduling — with or without a pool, with any
/// shard count.
///
/// Suppression (AS-SIMPLE / AS-ARBI) wraps this engine through the
/// MatchingEngine interface and runs strictly post-merge: μ/γ segment
/// arithmetic, Θ_R and the history store all see one logical corpus of
/// NumDocuments() documents, exactly as the paper assumes (DESIGN.md §12).
///
/// Epoch model: like PlainSearchEngine, the service either borrows one
/// static sharded index (epoch 0) or follows a CorpusManager configured
/// with shards; every query pins one epoch's sharded view.
class ShardedSearchService : public MatchingEngine {
 public:
  /// Builds the service over a static `index` (borrowed). `pool`
  /// (borrowed, optional) parallelizes the scatter phase; null means a
  /// serial fan-out with identical results. `scorer` defaults to BM25.
  ShardedSearchService(const ShardedInvertedIndex& index, size_t k,
                       ThreadPool* pool = nullptr,
                       std::unique_ptr<ScoringFunction> scorer = nullptr);

  /// Builds the service over `manager`'s epoch chain (borrowed; must be
  /// configured with num_shards >= 1 so every snapshot carries a sharded
  /// view).
  ShardedSearchService(const CorpusManager& manager, size_t k,
                       ThreadPool* pool = nullptr,
                       std::unique_ptr<ScoringFunction> scorer = nullptr);

  size_t k() const override { return k_; }

  SnapshotHandle PinSnapshot() const override {
    return manager_ != nullptr ? manager_->Current() : static_snapshot_;
  }

  RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                 const QueryNode& node,
                                 std::span<const TermId> score_terms,
                                 size_t limit) const override;

  size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                          const QueryNode& node) const override;

  std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                    const QueryNode& node) const override;

  std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query,
                                    std::span<const DocId> docs)
      const override;

  /// The current epoch's sharded index (lifetime caveat as corpus()).
  const ShardedInvertedIndex& index() const {
    return PinSnapshot()->sharded();
  }
  const ScoringFunction& scorer() const { return *scorer_; }

 private:
  /// Runs `body(s)` for every shard s — on the pool when attached (the
  /// calling thread participates), serially otherwise. `body` must only
  /// write to shard-`s`-owned slots.
  void ForEachShard(size_t shards,
                    const std::function<void(size_t)>& body) const;

  const CorpusManager* manager_ = nullptr;
  SnapshotHandle static_snapshot_;
  size_t k_;
  ThreadPool* pool_;
  std::unique_ptr<ScoringFunction> scorer_;
};

}  // namespace asup

#endif  // ASUP_ENGINE_SHARDED_SERVICE_H_
