#include "asup/suppress/as_decline.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/suppress/as_arbi.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::CountingEngine;
using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> CorrelatedFamily(const Rig& rig, size_t count) {
  std::vector<KeywordQuery> queries;
  const char* words[] = {"game",   "team",   "score", "league", "coach",
                         "season", "player", "match", "win"};
  for (const char* w : words) {
    if (queries.size() >= count) break;
    queries.push_back(rig.Q(std::string("sports ") + w));
  }
  return queries;
}

TEST(AsDeclineTest, UnderflowPassesThrough) {
  Rig rig = MakeRig(400, 5);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  const auto result = defended.Search(rig.Q("notaword"));
  EXPECT_EQ(result.status, QueryStatus::kUnderflow);
}

TEST(AsDeclineTest, FirstQueryIsAnswered) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  const auto result = defended.Search(rig.Q("sports game"));
  EXPECT_NE(result.status, QueryStatus::kDeclined);
  EXPECT_FALSE(result.docs.empty());
  EXPECT_EQ(defended.stats().simple_answers, 1u);
}

TEST(AsDeclineTest, CoveredQueriesAreDeclined) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  size_t declined = 0;
  for (const auto& q : CorrelatedFamily(rig, 9)) {
    const auto result = defended.Search(q);
    if (result.status == QueryStatus::kDeclined) {
      EXPECT_TRUE(result.docs.empty());
      ++declined;
    }
  }
  EXPECT_GT(declined, 0u);
  EXPECT_EQ(defended.stats().declined, declined);
}

TEST(AsDeclineTest, DeclineIsDeterministic) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  const auto family = CorrelatedFamily(rig, 9);
  std::vector<QueryStatus> first_pass;
  for (const auto& q : family) first_pass.push_back(defended.Search(q).status);
  for (size_t i = 0; i < family.size(); ++i) {
    EXPECT_EQ(defended.Search(family[i]).status, first_pass[i]) << i;
  }
}

TEST(AsDeclineTest, DeclinedQueriesNotRecorded) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  const auto family = CorrelatedFamily(rig, 9);
  for (const auto& q : family) defended.Search(q);
  EXPECT_EQ(defended.history().NumQueries() + defended.stats().declined,
            family.size());
}

TEST(AsDeclineTest, RecallLowerThanArbiOnCorrelatedFamilies) {
  // The whole point of virtual query processing (Section 5.2): AS-ARBI
  // answers what AS-DECLINE refuses.
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine decline(*rig.engine, AsDeclineConfig{});
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  size_t decline_docs = 0;
  size_t arbi_docs = 0;
  for (const auto& q : CorrelatedFamily(rig, 9)) {
    decline_docs += decline.Search(q).docs.size();
    arbi_docs += arbi.Search(q).docs.size();
  }
  EXPECT_GT(arbi_docs, decline_docs);
}

TEST(AsDeclineTest, BroadQueriesNeverDeclined) {
  Rig rig = MakeRig(800, 5);
  AsDeclineConfig config;
  config.cover_size = 2;  // only |q| <= 10 can trigger
  AsDeclineEngine defended(*rig.engine, config);
  for (const char* w : {"sports", "game", "team"}) {
    EXPECT_NE(defended.Search(rig.Q(w)).status, QueryStatus::kDeclined);
  }
}

// A live miss walks the postings once, as under AS-ARBI: M(q) = top-γk
// carries |Sel(q)| for the trigger and feeds the AS-SIMPLE stages; match
// ids cost one more walk only when the trigger is plausible and the
// history could cover the query. A decline never ranks, and a cache hit
// reaches no engine entry point at all.
TEST(AsDeclineTest, LiveMissWalksThePostingsOnce) {
  Rig rig = MakeTopicalRig(1050, 50);
  CountingEngine counting(*rig.engine);
  const AsDeclineConfig config;
  AsDeclineEngine defended(counting, config);
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

    counting.calls = {};
    const SearchResult first = defended.Search(q);
    EXPECT_EQ(counting.calls.top, 1u);
    EXPECT_EQ(counting.calls.count, 0u);
    EXPECT_EQ(counting.calls.ids, sel > 0 && plausible && coverable ? 1u : 0u);
    EXPECT_EQ(counting.calls.rank, 0u);
    id_walks += counting.calls.ids;

    counting.calls = {};
    const SearchResult again = defended.Search(q);
    EXPECT_EQ(counting.calls.top + counting.calls.count +
                  counting.calls.ids + counting.calls.rank,
              0u);
    EXPECT_EQ(again.status, first.status);
    EXPECT_EQ(again.DocIds(), first.DocIds());
  }
  // The family is built to reach the cover search.
  EXPECT_GT(id_walks, 0u);
  EXPECT_GT(defended.stats().declined, 0u);
}

}  // namespace
}  // namespace asup
