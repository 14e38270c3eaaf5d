#include "asup/engine/sharded_service.h"

#include <algorithm>

#include "asup/engine/doc_iterator.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

ShardedSearchService::ShardedSearchService(
    const ShardedInvertedIndex& index, size_t k, ThreadPool* pool,
    std::unique_ptr<ScoringFunction> scorer)
    : static_snapshot_(CorpusSnapshot::Borrow(index)),
      k_(k),
      pool_(pool),
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {}

ShardedSearchService::ShardedSearchService(
    const CorpusManager& manager, size_t k, ThreadPool* pool,
    std::unique_ptr<ScoringFunction> scorer)
    : manager_(&manager),
      k_(k),
      pool_(pool),
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {
  // Every snapshot of the chain must carry the sharded view this service
  // scatters over.
  ASUP_CHECK(manager.num_shards() >= 1);
  ASUP_CHECK(manager.Current()->has_sharded());
}

void ShardedSearchService::ForEachShard(
    size_t shards, const std::function<void(size_t)>& body) const {
  ASUP_METRIC_COUNT("asup_shard_fanout_total", shards,
                    "Per-shard match tasks fanned out");
  if (pool_ == nullptr || shards == 1) {
    for (size_t s = 0; s < shards; ++s) body(s);
    return;
  }
  pool_->ParallelFor(shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) body(s);
  });
}

RankedMatches ShardedSearchService::TopMatchesNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node,
    std::span<const TermId> score_terms, size_t limit) const {
  const ShardedInvertedIndex& index = snapshot.sharded();
  RankedMatches out;
  const ScoringContext context = scorer_->MakeContext(index, score_terms);

  // Scatter: each shard runs the top-k kernel on the same query tree
  // against its own document range (Not anti-joins each shard's local
  // range; shards partition the corpus, so the per-shard complements union
  // to the global complement), scoring against the global context and
  // keeping only its local top-`limit` — a superset of the shard's
  // contribution to the global top-`limit`. Slots are preallocated, so the
  // phase is deterministic under any scheduling.
  std::vector<RankedMatches> slots(index.NumShards());
  ForEachShard(index.NumShards(), [&](size_t s) {
    // Attributes the span to the caller's trace when this chunk runs on
    // the issuing thread; always feeds the shard_match latency histogram.
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    slots[s] = ExecuteTopK(index.Shard(s), node, score_terms, *scorer_,
                           context, limit);
  });

  // Gather: exact global merge. RankBefore is a strict total order over
  // distinct document ids, so the top-`limit` of the concatenated
  // candidates is unique — bitwise the single-index answer.
  {
    ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
    size_t candidates = 0;
    for (const RankedMatches& slot : slots) {
      out.total_matches += slot.total_matches;
      candidates += slot.docs.size();
    }
    std::vector<ScoredDoc> merged;
    merged.reserve(candidates);
    for (const RankedMatches& slot : slots) {
      merged.insert(merged.end(), slot.docs.begin(), slot.docs.end());
    }
    ASUP_METRIC_OBSERVE_SIZE("asup_shard_merge_candidates", candidates);
    if (limit < merged.size()) {
      std::nth_element(merged.begin(), merged.begin() + limit, merged.end(),
                       RankBefore);
      merged.resize(limit);
    }
    std::sort(merged.begin(), merged.end(), RankBefore);
    // Merge-ordering contract: a strict total order admits exactly one
    // sorted answer of at most `limit` documents, none repeated.
    ASUP_CHECK_LE(merged.size(), std::min(limit, candidates));
    ASUP_CONTRACTS_ONLY(for (size_t i = 1; i < merged.size(); ++i) {
      ASUP_CHECK(RankBefore(merged[i - 1], merged[i]));
    })
    ASUP_CHECK_LE(merged.size(), out.total_matches);
    out.docs = std::move(merged);
  }
  ASUP_TRACE_NOTE("shard_fanout", index.NumShards());
  return out;
}

size_t ShardedSearchService::MatchCountNodeIn(const CorpusSnapshot& snapshot,
                                              const QueryNode& node) const {
  const ShardedInvertedIndex& index = snapshot.sharded();
  std::vector<size_t> counts(index.NumShards(), 0);
  ForEachShard(index.NumShards(), [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    counts[s] = ExecuteCount(index.Shard(s), node);
  });
  size_t total = 0;
  for (size_t count : counts) total += count;
  return total;
}

std::vector<DocId> ShardedSearchService::MatchIdsNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node) const {
  const ShardedInvertedIndex& index = snapshot.sharded();
  std::vector<DocId> ids;
  std::vector<std::vector<DocId>> slots(index.NumShards());
  ForEachShard(index.NumShards(), [&](size_t s) {
    ASUP_TRACE_STAGE(obs::Stage::kShardMatch);
    const InvertedIndex& shard = index.Shard(s);
    const std::vector<uint32_t> locals = ExecuteLocals(shard, node);
    slots[s].reserve(locals.size());
    for (uint32_t local : locals) {
      slots[s].push_back(shard.LocalToId(local));
    }
  });
  // Shards hold ascending, disjoint DocId ranges; concatenating in shard
  // order is the single-index ascending id list.
  ASUP_TRACE_STAGE(obs::Stage::kShardMerge);
  size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  ids.reserve(total);
  for (const auto& slot : slots) {
    ids.insert(ids.end(), slot.begin(), slot.end());
  }
  ASUP_CONTRACTS_ONLY(
      ASUP_CHECK(std::is_sorted(ids.begin(), ids.end()));)
  return ids;
}

std::vector<ScoredDoc> ShardedSearchService::RankDocsIn(
    const CorpusSnapshot& snapshot, const KeywordQuery& query,
    std::span<const DocId> docs) const {
  const ShardedInvertedIndex& index = snapshot.sharded();
  const ScoringContext context = scorer_->MakeContext(index, query.terms());
  std::vector<ScoredDoc> scored;
  scored.reserve(docs.size());
  for (DocId id : docs) {
    const InvertedIndex& shard =
        index.Shard(index.ShardOfLocal(index.LocalOf(id)));
    scored.push_back({id, scorer_->ScoreDocument(
                              context, shard.DocAt(shard.LocalOf(id)),
                              query.terms())});
  }
  std::sort(scored.begin(), scored.end(), RankBefore);
  return scored;
}

}  // namespace asup
