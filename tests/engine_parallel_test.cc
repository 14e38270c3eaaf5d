#include "asup/engine/parallel_service.h"

#include <vector>

#include <gtest/gtest.h>

#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> MakeWorkload(const Rig& rig, size_t repeats) {
  const char* words[] = {"sports",        "game",        "team",
                         "sports game",   "score",       "league coach",
                         "season",        "player game", "coach",
                         "sports league"};
  std::vector<KeywordQuery> log;
  for (size_t r = 0; r < repeats; ++r) {
    for (const char* w : words) log.push_back(rig.Q(w));
  }
  return log;
}

void ExpectBitwiseEqual(const SearchResult& a, const SearchResult& b,
                        size_t at) {
  ASSERT_EQ(a.status, b.status) << "query " << at;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << "query " << at;
  for (size_t d = 0; d < a.docs.size(); ++d) {
    ASSERT_EQ(a.docs[d].doc, b.docs[d].doc) << "query " << at;
    ASSERT_EQ(a.docs[d].score, b.docs[d].score) << "query " << at;
  }
}

TEST(BatchExecutorTest, ConcurrentPlainBatchMatchesSerialBitwise) {
  Rig rig = MakeRig(500, 5);
  const auto log = MakeWorkload(rig, 3);

  std::vector<SearchResult> serial;
  for (const auto& query : log) serial.push_back(rig.engine->Search(query));

  ThreadPool pool(4);
  BatchExecutor executor(pool);
  const auto parallel = executor.ExecuteConcurrent(*rig.engine, log);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectBitwiseEqual(parallel[i], serial[i], i);
  }
}

TEST(BatchExecutorTest, DeterministicAsSimpleMatchesSerialBitwise) {
  // Two independent engines over identical corpora: one answers the
  // workload serially, the other through the deterministic parallel batch.
  Rig serial_rig = MakeRig(500, 5, /*seed=*/21);
  Rig batch_rig = MakeRig(500, 5, /*seed=*/21);
  AsSimpleConfig config;
  AsSimpleEngine serial_engine(*serial_rig.engine, config);
  AsSimpleEngine batch_engine(*batch_rig.engine, config);
  const auto log = MakeWorkload(serial_rig, 4);

  std::vector<SearchResult> serial;
  for (const auto& query : log) serial.push_back(serial_engine.Search(query));

  ThreadPool pool(4);
  const auto batched =
      BatchExecutor(pool).ExecuteDeterministic(batch_engine, log);

  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectBitwiseEqual(batched[i], serial[i], i);
  }
  // The suppression state evolved identically too.
  EXPECT_EQ(batch_engine.NumActivatedDocs(), serial_engine.NumActivatedDocs());
  EXPECT_EQ(batch_engine.stats().docs_hidden,
            serial_engine.stats().docs_hidden);
  EXPECT_EQ(batch_engine.stats().docs_trimmed,
            serial_engine.stats().docs_trimmed);
  EXPECT_EQ(batch_engine.stats().cache_hits, serial_engine.stats().cache_hits);
}

TEST(BatchExecutorTest, DeterministicAsArbiMatchesSerialBitwise) {
  Rig serial_rig = MakeTopicalRig(1500, 5, /*seed=*/33);
  Rig batch_rig = MakeTopicalRig(1500, 5, /*seed=*/33);
  AsArbiConfig config;
  AsArbiEngine serial_engine(*serial_rig.engine, config);
  AsArbiEngine batch_engine(*batch_rig.engine, config);

  // Narrow topical queries so virtual query processing actually triggers.
  std::vector<KeywordQuery> log;
  const auto& vocabulary = serial_rig.corpus->vocabulary();
  for (int round = 0; round < 3; ++round) {
    for (size_t t = 0;
         t < vocabulary.size() && log.size() < 120u * (round + 1); t += 17) {
      log.push_back(
          KeywordQuery::FromTerms(vocabulary, {static_cast<TermId>(t)}));
    }
  }

  std::vector<SearchResult> serial;
  for (const auto& query : log) serial.push_back(serial_engine.Search(query));

  ThreadPool pool(4);
  const auto batched =
      BatchExecutor(pool).ExecuteDeterministic(batch_engine, log);

  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectBitwiseEqual(batched[i], serial[i], i);
  }
  EXPECT_EQ(batch_engine.stats().virtual_answers,
            serial_engine.stats().virtual_answers);
  EXPECT_EQ(batch_engine.stats().simple_answers,
            serial_engine.stats().simple_answers);
  EXPECT_EQ(batch_engine.history().NumQueries(),
            serial_engine.history().NumQueries());
}

TEST(BatchExecutorTest, DeterministicModeReusesWarmCache) {
  Rig rig = MakeRig(400, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  const auto log = MakeWorkload(rig, 1);

  std::vector<SearchResult> first;
  for (const auto& query : log) first.push_back(engine.Search(query));
  for (const auto& query : log) EXPECT_TRUE(engine.HasCachedAnswer(query));

  ThreadPool pool(2);
  const auto again = BatchExecutor(pool).ExecuteDeterministic(engine, log);
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectBitwiseEqual(again[i], first[i], i);
  }
}

TEST(BatchExecutorTest, ConcurrentBatchPreservesInputOrder) {
  Rig rig = MakeRig(400, 5);
  ThreadPool pool(4);
  const auto log = MakeWorkload(rig, 2);
  const auto results = BatchExecutor(pool).ExecuteConcurrent(*rig.engine, log);
  ASSERT_EQ(results.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectBitwiseEqual(results[i], rig.engine->Search(log[i]), i);
  }
}

TEST(BatchExecutorTest, PrefetchIsStateIndependent) {
  // The deterministic-mode contract: PrefetchMatches must not observe
  // suppression state. Warm the engine heavily, then compare against a
  // fresh engine's prefetch of the same query.
  Rig rig = MakeRig(500, 5, /*seed=*/5);
  Rig fresh_rig = MakeRig(500, 5, /*seed=*/5);
  AsSimpleConfig config;
  AsSimpleEngine warmed(*rig.engine, config);
  AsSimpleEngine fresh(*fresh_rig.engine, config);
  for (const auto& query : MakeWorkload(rig, 3)) warmed.Search(query);

  const auto query = rig.Q("sports game");
  const QueryPrefetch a = warmed.PrefetchMatches(query);
  const QueryPrefetch b = fresh.PrefetchMatches(fresh_rig.Q("sports game"));
  ASSERT_EQ(a.ranked.docs.size(), b.ranked.docs.size());
  EXPECT_EQ(a.ranked.total_matches, b.ranked.total_matches);
  for (size_t i = 0; i < a.ranked.docs.size(); ++i) {
    EXPECT_EQ(a.ranked.docs[i].doc, b.ranked.docs[i].doc);
  }
}

}  // namespace
}  // namespace asup
