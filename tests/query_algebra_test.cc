// Property tests of the iterator algebra (engine/doc_iterator.h): random
// And/Or/Not trees over random corpora, checked against a brute-force
// set-algebra oracle that never touches the index or the iterators, and
// the top-k kernel checked against a brute-force score-and-sort reference
// through the plain and the sharded engine.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/doc_iterator.h"
#include "asup/engine/query_node.h"
#include "asup/engine/scoring.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/random.h"

namespace asup {
namespace {

// Brute-force oracle: evaluates the tree by scanning documents, sharing no
// code with the compile/execute path under test.
std::set<uint32_t> Oracle(const InvertedIndex& index, const QueryNode& node) {
  std::set<uint32_t> out;
  switch (node.kind()) {
    case QueryNode::Kind::kTerm:
      for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
        if (index.DocAt(local).Contains(node.term())) out.insert(local);
      }
      return out;
    case QueryNode::Kind::kAnd: {
      bool first = true;
      for (const QueryNode& child : node.children()) {
        const std::set<uint32_t> hits = Oracle(index, child);
        if (first) {
          out = hits;
          first = false;
        } else {
          std::set<uint32_t> kept;
          std::set_intersection(out.begin(), out.end(), hits.begin(),
                                hits.end(), std::inserter(kept, kept.end()));
          out = std::move(kept);
        }
      }
      return out;
    }
    case QueryNode::Kind::kOr:
      for (const QueryNode& child : node.children()) {
        const std::set<uint32_t> hits = Oracle(index, child);
        out.insert(hits.begin(), hits.end());
      }
      return out;
    case QueryNode::Kind::kNot: {
      const std::set<uint32_t> hits = Oracle(index, node.children()[0]);
      for (uint32_t local = 0; local < index.NumDocuments(); ++local) {
        if (!hits.count(local)) out.insert(local);
      }
      return out;
    }
    case QueryNode::Kind::kEmpty:
      return out;
  }
  return out;
}

// Random tree: leaves are terms (occasionally unindexed ids just past the
// vocabulary, occasionally Empty); inner nodes are And/Or with 1..8
// children or Not. Small vocabularies make duplicate terms frequent.
QueryNode RandomTree(Rng& rng, size_t vocab_size, int depth) {
  const uint64_t roll = rng.UniformBelow(depth == 0 ? 8 : 16);
  if (roll < 7) {
    return QueryNode::Term(
        static_cast<TermId>(rng.UniformBelow(vocab_size + 16)));
  }
  if (roll == 7) return QueryNode::MakeEmpty();
  if (roll == 15) return QueryNode::Not(RandomTree(rng, vocab_size, depth - 1));
  const size_t arity = 1 + rng.UniformBelow(8);
  std::vector<QueryNode> children;
  children.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    children.push_back(RandomTree(rng, vocab_size, depth - 1));
  }
  return roll < 12 ? QueryNode::And(std::move(children))
                   : QueryNode::Or(std::move(children));
}

Corpus SmallCorpus(uint64_t seed, size_t docs) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 60;
  config.num_topics = 4;
  config.words_per_topic = 12;
  config.seed = seed;
  SyntheticCorpusGenerator generator(config);
  return generator.Generate(docs);
}

// Brute-force ranking: scores every oracle match from the document's own
// frequencies and sorts by RankBefore — no heap, no aligned iterators.
std::vector<ScoredDoc> ReferenceRanking(const InvertedIndex& index,
                                        const QueryNode& node,
                                        std::span<const TermId> terms,
                                        const ScoringFunction& scorer) {
  const ScoringContext context = scorer.MakeContext(index, terms);
  std::vector<ScoredDoc> ranked;
  for (uint32_t local : Oracle(index, node)) {
    const Document& doc = index.DocAt(local);
    std::vector<uint32_t> freqs;
    for (TermId term : terms) freqs.push_back(doc.FrequencyOf(term));
    ranked.push_back(
        {index.LocalToId(local),
         scorer.ScoreMatch(context, static_cast<double>(doc.length()),
                           freqs)});
  }
  std::sort(ranked.begin(), ranked.end(), RankBefore);
  return ranked;
}

// The first `limit` of `reference`, bitwise (ids and scores), and the
// exact total.
void ExpectTopK(const RankedMatches& got,
                const std::vector<ScoredDoc>& reference, size_t limit) {
  EXPECT_EQ(got.total_matches, reference.size());
  ASSERT_EQ(got.docs.size(), std::min(limit, reference.size()));
  for (size_t i = 0; i < got.docs.size(); ++i) {
    EXPECT_EQ(got.docs[i].doc, reference[i].doc) << "rank " << i;
    EXPECT_EQ(got.docs[i].score, reference[i].score) << "rank " << i;
  }
}

void ExpectTreeMatchesOracle(const InvertedIndex& index,
                             const QueryNode& node) {
  const std::set<uint32_t> expected_set = Oracle(index, node);
  const std::vector<uint32_t> expected(expected_set.begin(),
                                       expected_set.end());
  // The kernel, unbounded, must rank every match with the score its true
  // per-term frequencies give.
  const std::vector<TermId> terms = node.CollectTerms();
  const Bm25Scorer scorer;
  const std::vector<ScoredDoc> reference =
      ReferenceRanking(index, node, terms, scorer);
  for (const OrStrategy strategy :
       {OrStrategy::kAdaptive, OrStrategy::kFlat, OrStrategy::kHeap}) {
    EXPECT_EQ(ExecuteLocals(index, node, strategy), expected);
    EXPECT_EQ(ExecuteCount(index, node, strategy), expected.size());
    ExpectTopK(ExecuteTopK(index, node, terms, scorer,
                           scorer.MakeContext(index, terms), SIZE_MAX,
                           strategy),
               reference, SIZE_MAX);
  }
}

class QueryAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryAlgebraTest, RandomTreesMatchSetAlgebraOracle) {
  const Corpus corpus = SmallCorpus(900 + GetParam(), 150);
  const InvertedIndex index(corpus);
  const size_t vocab = corpus.vocabulary().size();
  Rng rng(17 + GetParam());
  for (int round = 0; round < 120; ++round) {
    const QueryNode node = RandomTree(rng, vocab, 3);
    ExpectTreeMatchesOracle(index, node);
  }
}

// SmallCorpus with every third document repeated next to itself and every
// fifth repeated at the end of the id range (in another shard), so equal
// scores are frequent and the local-id tie-break decides ranks, within a
// shard and across shards.
Corpus CorpusWithDuplicates(uint64_t seed, size_t docs) {
  const Corpus base = SmallCorpus(seed, docs);
  std::vector<Document> out;
  for (const Document& doc : base.documents()) {
    const DocId id = doc.id();
    out.emplace_back(2 * id, doc.terms(), doc.length());
    if (id % 3 == 0) out.emplace_back(2 * id + 1, doc.terms(), doc.length());
    if (id % 5 == 0) {
      out.emplace_back(static_cast<DocId>(2 * docs + id), doc.terms(),
                       doc.length());
    }
  }
  return Corpus(base.vocabulary_ptr(), std::move(out));
}

TEST_P(QueryAlgebraTest, TopKMatchesBruteForceReference) {
  const Corpus corpus = CorpusWithDuplicates(700 + GetParam(), 120);
  const InvertedIndex index(corpus);
  std::vector<std::unique_ptr<ShardedInvertedIndex>> sharded;
  for (size_t shards : {1, 2, 4}) {
    sharded.push_back(std::make_unique<ShardedInvertedIndex>(corpus, shards));
  }
  const size_t k = 10;
  const size_t gamma_k = 20;
  const size_t vocab = corpus.vocabulary().size();
  Rng rng(41 + GetParam());
  size_t ties = 0;
  for (int scorer_kind = 0; scorer_kind < 2; ++scorer_kind) {
    const auto make_scorer = [&]() -> std::unique_ptr<ScoringFunction> {
      if (scorer_kind == 0) return std::make_unique<Bm25Scorer>();
      return std::make_unique<TfIdfScorer>();
    };
    const std::unique_ptr<ScoringFunction> scorer = make_scorer();
    std::vector<std::unique_ptr<MatchingEngine>> engines;
    engines.push_back(
        std::make_unique<PlainSearchEngine>(index, k, make_scorer()));
    for (const auto& shards : sharded) {
      engines.push_back(std::make_unique<ShardedSearchService>(
          *shards, k, nullptr, make_scorer()));
    }
    for (int round = 0; round < 60; ++round) {
      const QueryNode node = RandomTree(rng, vocab, 3);
      const std::vector<TermId> terms = node.CollectTerms();
      const std::vector<ScoredDoc> reference =
          ReferenceRanking(index, node, terms, *scorer);
      for (size_t i = 1; i < reference.size(); ++i) {
        ties += reference[i - 1].score == reference[i].score ? 1 : 0;
      }
      const size_t sel = reference.size();
      for (size_t e = 0; e < engines.size(); ++e) {
        for (size_t limit : {size_t{0}, size_t{1}, k, gamma_k, sel, sel + 1}) {
          SCOPED_TRACE(::testing::Message()
                       << "scorer " << scorer_kind << " engine " << e
                       << " round " << round << " limit " << limit);
          ExpectTopK(engines[e]->TopMatchesNode(node, terms, limit),
                     reference, limit);
        }
      }
    }
  }
  // The duplicates must actually put tied scores in play.
  EXPECT_GT(ties, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryAlgebraTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(QueryAlgebraShapesTest, HandPickedShapes) {
  const Corpus corpus = SmallCorpus(5, 120);
  const InvertedIndex index(corpus);
  const TermId a = 3, b = 7, c = 11, d = 19;
  const TermId unknown = static_cast<TermId>(corpus.vocabulary().size() + 5);

  std::vector<QueryNode> shapes;
  // Duplicate terms inside And and Or.
  shapes.push_back(QueryNode::And({QueryNode::Term(a), QueryNode::Term(a)}));
  shapes.push_back(QueryNode::Or({QueryNode::Term(a), QueryNode::Term(a)}));
  // Unknown term erases an And, vanishes from an Or.
  shapes.push_back(
      QueryNode::And({QueryNode::Term(a), QueryNode::Term(unknown)}));
  shapes.push_back(
      QueryNode::Or({QueryNode::Term(a), QueryNode::Term(unknown)}));
  // Explicit Empty children.
  shapes.push_back(QueryNode::And({QueryNode::Term(a), QueryNode::MakeEmpty()}));
  shapes.push_back(QueryNode::Or({QueryNode::MakeEmpty(), QueryNode::Term(b)}));
  // Single-child composites collapse.
  shapes.push_back(QueryNode::And({QueryNode::Term(c)}));
  shapes.push_back(QueryNode::Or({QueryNode::Term(c)}));
  // Not, double Not, Not of Empty (= everything), Not of everything.
  shapes.push_back(QueryNode::Not(QueryNode::Term(a)));
  shapes.push_back(QueryNode::Not(QueryNode::Not(QueryNode::Term(a))));
  shapes.push_back(QueryNode::Not(QueryNode::MakeEmpty()));
  shapes.push_back(QueryNode::Not(QueryNode::Not(QueryNode::MakeEmpty())));
  // (a AND b) OR (c AND NOT d) — the mixed shape engines will see from a
  // boolean front end.
  shapes.push_back(QueryNode::Or(
      {QueryNode::And({QueryNode::Term(a), QueryNode::Term(b)}),
       QueryNode::And(
           {QueryNode::Term(c), QueryNode::Not(QueryNode::Term(d))})}));
  // Wide And / Or of 8 children.
  {
    std::vector<QueryNode> wide;
    for (TermId t = 0; t < 8; ++t) wide.push_back(QueryNode::Term(t * 5));
    shapes.push_back(QueryNode::And(std::vector<QueryNode>(wide)));
    shapes.push_back(QueryNode::Or(std::move(wide)));
  }

  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectTreeMatchesOracle(index, shapes[i]);
  }
}

// The conjunctive fast shape must expose aligned TermIterators (no
// document lookups during scoring), and its frequencies must equal the
// fallback path's.
TEST(QueryAlgebraShapesTest, ConjunctionExposesAlignedTerms) {
  const Corpus corpus = SmallCorpus(6, 120);
  const InvertedIndex index(corpus);
  const QueryNode node =
      QueryNode::And({QueryNode::Term(2), QueryNode::Term(9)});
  const CompiledQuery compiled = CompileQuery(index, node);
  ASSERT_EQ(compiled.aligned_terms.size(), 2u);
  // Rarest-first ordering.
  EXPECT_LE(compiled.aligned_terms[0]->CostEstimate(),
            compiled.aligned_terms[1]->CostEstimate());
  ExpectTreeMatchesOracle(index, node);
}

TEST(QueryAlgebraShapesTest, GeneralTreesHaveNoAlignedTerms) {
  const Corpus corpus = SmallCorpus(7, 60);
  const InvertedIndex index(corpus);
  const QueryNode node =
      QueryNode::Or({QueryNode::Term(2), QueryNode::Term(9)});
  EXPECT_TRUE(CompileQuery(index, node).aligned_terms.empty());
}

}  // namespace
}  // namespace asup
