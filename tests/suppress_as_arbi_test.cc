#include "asup/suppress/as_arbi.h"

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace asup {
namespace {

using testing_util::CountingEngine;
using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

TEST(AsArbiTest, UnderflowPassesThrough) {
  Rig rig = MakeRig(400, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto result = defended.Search(rig.Q("notaword"));
  EXPECT_EQ(result.status, QueryStatus::kUnderflow);
  EXPECT_TRUE(result.docs.empty());
  EXPECT_EQ(defended.history().NumQueries(), 0u);
}

TEST(AsArbiTest, FirstQueryGoesThroughSimplePath) {
  Rig rig = MakeRig(400, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto result = defended.Search(rig.Q("sports"));
  EXPECT_FALSE(result.docs.empty());
  EXPECT_EQ(defended.stats().simple_answers, 1u);
  EXPECT_EQ(defended.stats().virtual_answers, 0u);
  EXPECT_EQ(defended.history().NumQueries(), 1u);
}

TEST(AsArbiTest, DeterministicRepeats) {
  Rig rig = MakeRig(500, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto first = defended.Search(rig.Q("sports game"));
  defended.Search(rig.Q("team"));
  defended.Search(rig.Q("score"));
  const auto again = defended.Search(rig.Q("sports game"));
  ASSERT_EQ(first.docs.size(), again.docs.size());
  for (size_t i = 0; i < first.docs.size(); ++i) {
    EXPECT_EQ(first.docs[i].doc, again.docs[i].doc);
  }
  EXPECT_GE(defended.stats().cache_hits, 1u);
}

// Correlated topical queries: "sports" plus each of its strongest topic
// companions. In the topical rig the sports population is ~k documents, so
// these queries heavily overlap — the regime where virtual query
// processing engages.
std::vector<KeywordQuery> CorrelatedFamily(const Rig& rig, size_t count) {
  std::vector<KeywordQuery> queries;
  const char* words[] = {"game", "team",   "score", "league", "coach",
                         "season", "player", "match", "win"};
  for (const char* w : words) {
    if (queries.size() >= count) break;
    queries.push_back(rig.Q(std::string("sports ") + w));
  }
  return queries;
}

TEST(AsArbiTest, VirtualAnswerForCoveredQuery) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  uint64_t virtuals_before = defended.stats().virtual_answers;
  for (const auto& q : CorrelatedFamily(rig, 9)) defended.Search(q);
  // With heavy overlap among these queries, later ones are answered
  // virtually once history accumulates.
  EXPECT_GT(defended.stats().virtual_answers, virtuals_before);
}

TEST(AsArbiTest, VirtualAnswersComeFromHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  bool any_virtual = false;
  for (const auto& q : CorrelatedFamily(rig, 9)) {
    const uint64_t virtuals = defended.stats().virtual_answers;
    const auto result = defended.Search(q);
    if (defended.stats().virtual_answers == virtuals) continue;
    any_virtual = true;
    // Every returned doc must have been disclosed by an earlier answer...
    for (const auto& scored : result.docs) {
      EXPECT_NE(defended.history().QueriesReturning(scored.doc), nullptr);
    }
    // ...and must match the query.
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    for (const auto& scored : result.docs) {
      EXPECT_TRUE(matches.count(scored.doc));
    }
  }
  EXPECT_TRUE(any_virtual);
}

TEST(AsArbiTest, VirtualAnswersNotRecordedInHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  const auto family = CorrelatedFamily(rig, 9);
  for (const auto& q : family) defended.Search(q);
  // History grew only by the non-virtual answers.
  EXPECT_EQ(defended.history().NumQueries() +
                defended.stats().virtual_answers,
            family.size());
  EXPECT_GT(defended.stats().virtual_answers, 0u);
}

TEST(AsArbiTest, BroadQueriesSkipTriggerEvaluation) {
  Rig rig = MakeRig(800, 5);
  AsArbiConfig config;
  config.cover_size = 2;  // trigger only possible for |q| <= 10
  AsArbiEngine defended(*rig.engine, config);
  defended.Search(rig.Q("sports"));  // df >> 10 in an 800-doc corpus
  EXPECT_EQ(defended.stats().trigger_evaluations, 0u);
}

TEST(AsArbiTest, NeverReturnsMoreThanK) {
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  for (const char* w : {"sports", "game", "sports game", "team", "score"}) {
    EXPECT_LE(defended.Search(rig.Q(w)).docs.size(), 5u);
  }
}

TEST(AsArbiTest, AnswersAreSubsetsOfMatches) {
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  for (const char* w : {"sports", "game", "sports game", "sports team"}) {
    const auto q = rig.Q(w);
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    for (const auto& scored : defended.Search(q).docs) {
      EXPECT_TRUE(matches.count(scored.doc)) << w;
    }
  }
}

// A live miss walks the postings once: M(q) = top-γk carries |Sel(q)| for
// the trigger and feeds the fall-through. Match ids cost one more walk,
// only when the trigger is plausible and the history could cover the
// query; a cache hit reaches no engine entry point at all.
TEST(AsArbiTest, LiveMissWalksThePostingsOnce) {
  Rig rig = MakeTopicalRig(1050, 50);
  CountingEngine counting(*rig.engine);
  const AsArbiConfig config;
  AsArbiEngine defended(counting, config);
  size_t id_walks = 0;
  for (const auto& q : CorrelatedFamily(rig, 9)) {
    SCOPED_TRACE(q.canonical());
    const size_t sel = rig.engine->MatchCount(q);
    const bool plausible =
        config.cover_ratio * static_cast<double>(sel) <=
        static_cast<double>(config.cover_size * rig.engine->k());
    const auto need = static_cast<size_t>(
        std::ceil(config.cover_ratio * static_cast<double>(sel)));
    const bool coverable = defended.history().NumQueries() > 0 &&
                           defended.history().NumDocumentsSeen() >= need;
    const uint64_t virtuals = defended.stats().virtual_answers;

    counting.calls = {};
    const SearchResult first = defended.Search(q);
    EXPECT_EQ(counting.calls.top, 1u);
    EXPECT_EQ(counting.calls.count, 0u);
    const size_t expected_ids = sel > 0 && plausible && coverable ? 1 : 0;
    EXPECT_EQ(counting.calls.ids, expected_ids);
    EXPECT_EQ(counting.calls.rank,
              defended.stats().virtual_answers - virtuals);
    id_walks += counting.calls.ids;

    counting.calls = {};
    const SearchResult again = defended.Search(q);
    EXPECT_EQ(counting.calls.top + counting.calls.count +
                  counting.calls.ids + counting.calls.rank,
              0u);
    EXPECT_EQ(again.DocIds(), first.DocIds());
  }
  // The family is built to reach the cover search.
  EXPECT_GT(id_walks, 0u);
}

// A live miss claims its cache key before it walks the postings. A walk
// that throws must abandon the claim: otherwise every later Search of the
// query would wait forever on an answer that is never published.
TEST(AsArbiTest, ThrowingLiveWalkReleasesTheCacheClaim) {
  Rig rig = MakeTopicalRig(1050, 50);
  CountingEngine counting(*rig.engine);
  AsArbiEngine defended(counting, AsArbiConfig{});
  AsArbiEngine reference(*rig.engine, AsArbiConfig{});
  const KeywordQuery q = CorrelatedFamily(rig, 1).front();

  counting.throw_next_top = true;
  EXPECT_THROW(defended.Search(q), std::runtime_error);
  const SearchResult retried = defended.Search(q);
  EXPECT_EQ(retried.DocIds(), reference.Search(q).DocIds());
  EXPECT_EQ(defended.stats().cache_hits, 0u);
}

class AsArbiCoverSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AsArbiCoverSizeSweep, WorksAcrossCoverSizes) {
  // The paper reports little sensitivity to m in 1..10; at minimum the
  // engine must stay correct (subset-of-matches, size <= k).
  Rig rig = MakeRig(500, 10, /*seed=*/31);
  AsArbiConfig config;
  config.cover_size = GetParam();
  AsArbiEngine defended(*rig.engine, config);
  for (const char* w :
       {"sports", "sports game", "sports team", "game team", "sports score"}) {
    const auto q = rig.Q(w);
    const auto match_ids = rig.engine->MatchIds(q);
    const std::set<DocId> matches(match_ids.begin(), match_ids.end());
    const auto result = defended.Search(q);
    EXPECT_LE(result.docs.size(), 10u);
    for (const auto& scored : result.docs) {
      EXPECT_TRUE(matches.count(scored.doc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoverSizes, AsArbiCoverSizeSweep,
                         ::testing::Values(1, 2, 5, 10));

}  // namespace
}  // namespace asup
