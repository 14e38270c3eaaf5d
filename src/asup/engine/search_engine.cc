#include "asup/engine/search_engine.h"

#include <algorithm>
#include <utility>

#include "asup/engine/doc_iterator.h"
#include "asup/util/check.h"

namespace asup {

bool RankBefore(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

SearchResult MatchingEngine::Search(const KeywordQuery& query) {
  // One pin for the whole query: the answer is computed against a single
  // epoch even if a publish lands mid-query.
  const SnapshotHandle snapshot = PinSnapshot();
  RankedMatches ranked = TopMatchesIn(*snapshot, query, k());
  // The undefended interface of Section 2.1: underflow when nothing
  // matched, overflow when |Sel(q)| > k, the ranked top-k either way.
  SearchResult result;
  if (ranked.total_matches == 0) {
    result.status = QueryStatus::kUnderflow;
  } else if (ranked.total_matches > k()) {
    result.status = QueryStatus::kOverflow;
  } else {
    result.status = QueryStatus::kValid;
  }
  result.docs = std::move(ranked.docs);
  return result;
}

RankedMatches MatchingEngine::TopMatchesIn(const CorpusSnapshot& snapshot,
                                           const KeywordQuery& query,
                                           size_t limit) const {
  if (query.terms().empty()) return {};  // unknown word or empty query
  return TopMatchesNodeIn(snapshot, QueryNode::FromKeywords(query),
                          query.terms(), limit);
}

size_t MatchingEngine::MatchCountIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query) const {
  if (query.terms().empty()) return 0;
  return MatchCountNodeIn(snapshot, QueryNode::FromKeywords(query));
}

std::vector<DocId> MatchingEngine::MatchIdsIn(const CorpusSnapshot& snapshot,
                                              const KeywordQuery& query)
    const {
  if (query.terms().empty()) return {};
  return MatchIdsNodeIn(snapshot, QueryNode::FromKeywords(query));
}

PlainSearchEngine::PlainSearchEngine(const InvertedIndex& index, size_t k,
                                     std::unique_ptr<ScoringFunction> scorer)
    : static_snapshot_(CorpusSnapshot::Borrow(index)),
      k_(k),
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {}

PlainSearchEngine::PlainSearchEngine(const CorpusManager& manager, size_t k,
                                     std::unique_ptr<ScoringFunction> scorer)
    : manager_(&manager),
      k_(k),
      scorer_(scorer ? std::move(scorer) : MakeDefaultScorer()) {}

RankedMatches PlainSearchEngine::TopMatchesNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node,
    std::span<const TermId> score_terms, size_t limit) const {
  const InvertedIndex& index = snapshot.index();
  return ExecuteTopK(index, node, score_terms, *scorer_,
                     scorer_->MakeContext(index, score_terms), limit);
}

size_t PlainSearchEngine::MatchCountNodeIn(const CorpusSnapshot& snapshot,
                                           const QueryNode& node) const {
  return ExecuteCount(snapshot.index(), node);
}

std::vector<DocId> PlainSearchEngine::MatchIdsNodeIn(
    const CorpusSnapshot& snapshot, const QueryNode& node) const {
  const InvertedIndex& index = snapshot.index();
  const std::vector<uint32_t> locals = ExecuteLocals(index, node);
  std::vector<DocId> ids;
  ids.reserve(locals.size());
  for (uint32_t local : locals) ids.push_back(index.LocalToId(local));
  return ids;
}

std::vector<ScoredDoc> PlainSearchEngine::RankDocsIn(
    const CorpusSnapshot& snapshot, const KeywordQuery& query,
    std::span<const DocId> docs) const {
  const InvertedIndex& index = snapshot.index();
  const ScoringContext context = scorer_->MakeContext(index, query.terms());
  std::vector<ScoredDoc> scored;
  scored.reserve(docs.size());
  for (DocId id : docs) {
    scored.push_back({id, scorer_->ScoreDocument(
                              context, index.DocAt(index.LocalOf(id)),
                              query.terms())});
  }
  std::sort(scored.begin(), scored.end(), RankBefore);
  return scored;
}

}  // namespace asup
