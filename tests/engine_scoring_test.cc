#include "asup/engine/scoring.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "asup/engine/query_node.h"
#include "asup/engine/search_engine.h"

namespace asup {
namespace {

// A tiny corpus with controlled term statistics.
class ScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    const TermId rare = vocab_->AddWord("rare");      // df 1
    const TermId common = vocab_->AddWord("common");  // df 4
    const TermId filler = vocab_->AddWord("filler");
    rare_ = rare;
    common_ = common;

    std::vector<Document> docs;
    // Doc 0: short, contains rare + common.
    docs.emplace_back(0, std::vector<TermId>{rare, common, filler});
    // Doc 1: long, one 'common', many fillers.
    std::vector<TermId> long_tokens(50, filler);
    long_tokens.push_back(common);
    docs.emplace_back(1, long_tokens);
    // Doc 2: 'common' thrice.
    docs.emplace_back(2, std::vector<TermId>{common, common, common, filler});
    // Doc 3: 'common' once, short.
    docs.emplace_back(3, std::vector<TermId>{common, filler, filler});
    corpus_ = std::make_unique<Corpus>(vocab_, std::move(docs));
    index_ = std::make_unique<InvertedIndex>(*corpus_);
  }

  // Scores document `id` for a query of `terms` with the given per-term
  // frequencies (its own frequencies when `freqs` is empty).
  double Score(const ScoringFunction& scorer, const std::vector<TermId>& terms,
               DocId id, std::vector<uint32_t> freqs = {}) {
    const Document& doc = corpus_->Get(id);
    if (freqs.empty()) {
      for (TermId term : terms) freqs.push_back(doc.FrequencyOf(term));
    }
    return scorer.ScoreMatch(scorer.MakeContext(*index_, terms),
                             static_cast<double>(doc.length()), freqs);
  }

  std::shared_ptr<Vocabulary> vocab_;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<InvertedIndex> index_;
  TermId rare_;
  TermId common_;
};

TEST_F(ScoringTest, Bm25RareTermOutscoresCommonTerm) {
  Bm25Scorer scorer;
  const std::vector<TermId> rare_q{rare_};
  const std::vector<TermId> common_q{common_};
  const double rare_score = Score(scorer, rare_q, 0);
  const double common_score = Score(scorer, common_q, 0);
  EXPECT_GT(rare_score, common_score);
}

TEST_F(ScoringTest, Bm25HigherTfScoresHigher) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  // Doc 2 has tf 3, doc 3 has tf 1; similar lengths.
  EXPECT_GT(Score(scorer, q, 2), Score(scorer, q, 3));
}

TEST_F(ScoringTest, Bm25LengthNormalizationPenalizesLongDocs) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  // Doc 3 (short, tf 1) vs doc 1 (long, tf 1).
  EXPECT_GT(Score(scorer, q, 3), Score(scorer, q, 1));
}

TEST_F(ScoringTest, Bm25TfSaturates) {
  Bm25Scorer scorer;
  const std::vector<TermId> q{common_};
  const double s1 = Score(scorer, q, 3, {1});
  const double s10 = Score(scorer, q, 3, {10});
  const double s100 = Score(scorer, q, 3, {100});
  EXPECT_GT(s10, s1);
  EXPECT_GT(s100, s10);
  // Diminishing returns: the 10 -> 100 jump adds less than 1 -> 10.
  EXPECT_LT(s100 - s10, s10 - s1);
}

TEST_F(ScoringTest, Bm25MultiTermIsAdditive) {
  Bm25Scorer scorer;
  const std::vector<TermId> both{rare_, common_};
  const std::vector<TermId> just_rare{rare_};
  const std::vector<TermId> just_common{common_};
  const double sum =
      Score(scorer, just_rare, 0) + Score(scorer, just_common, 0);
  const double joint = Score(scorer, both, 0);
  EXPECT_NEAR(joint, sum, 1e-9);
}

TEST_F(ScoringTest, Bm25ScoresArePositive) {
  Bm25Scorer scorer;
  for (DocId id : {0u, 2u, 3u}) {
    EXPECT_GT(Score(scorer, std::vector<TermId>{common_}, id), 0.0);
  }
}

TEST_F(ScoringTest, TfIdfRareTermOutscoresCommonTerm) {
  TfIdfScorer scorer;
  EXPECT_GT(Score(scorer, std::vector<TermId>{rare_}, 0),
            Score(scorer, std::vector<TermId>{common_}, 0));
}

TEST_F(ScoringTest, Bm25ParametersMatter) {
  // b = 0 disables length normalization: long and short docs with equal tf
  // score equally.
  Bm25Scorer no_length_norm(1.2, 0.0);
  const std::vector<TermId> q{common_};
  EXPECT_NEAR(Score(no_length_norm, q, 3), Score(no_length_norm, q, 1),
              1e-9);
}

// Under an Or tree a match may lack some scoring terms. Such a term must
// contribute 0 to TF-IDF (1 + log 0 would make every partial match −∞ and
// leave it ranked by doc id alone).
TEST(TfIdfScorerTest, OrTreeRanksPartialMatchesByScore) {
  auto vocab = std::make_shared<Vocabulary>();
  const TermId a = vocab->AddWord("a");
  const TermId b = vocab->AddWord("b");
  const TermId filler = vocab->AddWord("filler");
  std::vector<Document> docs;
  docs.emplace_back(0, std::vector<TermId>{a, b});                // both
  docs.emplace_back(1, std::vector<TermId>{b, filler, filler, filler});
  docs.emplace_back(2, std::vector<TermId>{b, b, filler});        // tf 2
  docs.emplace_back(3, std::vector<TermId>{filler});
  docs.emplace_back(4, std::vector<TermId>{filler});
  const Corpus corpus(vocab, std::move(docs));
  const InvertedIndex index(corpus);
  PlainSearchEngine engine(index, 10, std::make_unique<TfIdfScorer>());
  const std::vector<TermId> terms{a, b};
  const RankedMatches ranked = engine.TopMatchesNode(
      QueryNode::Or({QueryNode::Term(a), QueryNode::Term(b)}), terms, 10);
  ASSERT_EQ(ranked.total_matches, 3u);
  ASSERT_EQ(ranked.docs.size(), 3u);
  for (const ScoredDoc& scored : ranked.docs) {
    EXPECT_TRUE(std::isfinite(scored.score)) << scored.doc;
    EXPECT_GT(scored.score, 0.0) << scored.doc;
  }
  // Doc 2 (tf 2, shorter) outranks doc 1 (tf 1, longer) on score, against
  // doc-id order.
  EXPECT_EQ(ranked.docs[0].doc, 0u);
  EXPECT_EQ(ranked.docs[1].doc, 2u);
  EXPECT_EQ(ranked.docs[2].doc, 1u);
}

TEST_F(ScoringTest, DefaultScorerIsBm25) {
  auto scorer = MakeDefaultScorer();
  ASSERT_NE(scorer, nullptr);
  EXPECT_NE(dynamic_cast<Bm25Scorer*>(scorer.get()), nullptr);
}

}  // namespace
}  // namespace asup
