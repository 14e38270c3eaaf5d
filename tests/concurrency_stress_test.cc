// The deterministic concurrency harness of the parallel batch subsystem:
// identical workloads are executed serially and concurrently and the
// answers compared bitwise. Run these under ThreadSanitizer
// (-DASUP_SANITIZE=thread) to turn the interleavings the harness provokes
// into detected races rather than silent corruption.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/index/corpus_manager.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/workload/aol_like.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> AolLog(const Rig& rig, size_t size) {
  AolLikeConfig config;
  config.log_size = size;
  config.unique_queries = size / 3;
  AolLikeWorkload workload(*rig.corpus, config);
  return workload.log();
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

TEST(ConcurrencyStressTest, PlainEngineSerialVsConcurrentEquivalence) {
  // The undefended engine is stateless, so free-running concurrency must
  // already be bitwise equivalent to a serial loop.
  Rig rig = MakeRig(800, 5);
  const auto log = AolLog(rig, 600);

  std::vector<SearchResult> serial;
  serial.reserve(log.size());
  for (const auto& query : log) serial.push_back(rig.engine->Search(query));

  ThreadPool pool(8);
  const auto concurrent =
      BatchExecutor(pool).ExecuteConcurrent(*rig.engine, log);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectBitwiseEqual(concurrent[i], serial[i], i);
  }
}

TEST(ConcurrencyStressTest, DefendedSerialVsDeterministicParallelEquivalence) {
  // The headline equivalence: a stateful AS-ARBI engine executed through
  // the deterministic parallel batch produces bitwise-identical answers —
  // and identical suppression state — to a serial engine over an identical
  // corpus, no matter how the prefetch phase interleaves.
  Rig serial_rig = MakeTopicalRig(2000, 5, /*seed=*/17);
  Rig batch_rig = MakeTopicalRig(2000, 5, /*seed=*/17);
  AsArbiConfig config;
  AsArbiEngine serial_engine(*serial_rig.engine, config);
  AsArbiEngine batch_engine(*batch_rig.engine, config);
  const auto log = AolLog(serial_rig, 900);

  std::vector<SearchResult> serial;
  serial.reserve(log.size());
  for (const auto& query : log) serial.push_back(serial_engine.Search(query));

  ThreadPool pool(8);
  const auto batched =
      BatchExecutor(pool).ExecuteDeterministic(batch_engine, log);

  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectBitwiseEqual(batched[i], serial[i], i);
  }
  EXPECT_EQ(batch_engine.history().NumQueries(),
            serial_engine.history().NumQueries());
  EXPECT_EQ(batch_engine.NumActivatedDocs(),
            serial_engine.NumActivatedDocs());
  EXPECT_EQ(batch_engine.stats().virtual_answers,
            serial_engine.stats().virtual_answers);
}

TEST(ConcurrencyStressTest, SameQuerySameAnswerUnderFreeRunningThreads) {
  // Section 2.1's determinism guarantee under concurrency: every
  // observation of a query — from any thread, at any interleaving — must
  // equal every other observation of that query.
  Rig rig = MakeRig(800, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});

  const auto log = AolLog(rig, 60);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;

  std::vector<std::map<std::string, std::vector<DocId>>> seen(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> intra_thread_mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Thread-dependent order, so claims and cache hits interleave.
        const auto& query = log[(round * (t + 3) + t) % log.size()];
        const std::vector<DocId> docs = defended.Search(query).DocIds();
        auto [it, inserted] = seen[t].try_emplace(query.canonical(), docs);
        if (!inserted && it->second != docs) {
          intra_thread_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(intra_thread_mismatches.load(), 0);

  // Cross-thread and cross-time: every observation equals a serial
  // re-issue after the storm (which is a cache hit by construction).
  for (const auto& per_thread : seen) {
    for (const auto& [canonical, docs] : per_thread) {
      for (const auto& query : log) {
        if (query.canonical() != canonical) continue;
        EXPECT_EQ(defended.Search(query).DocIds(), docs)
            << "query '" << canonical << "'";
        break;
      }
    }
  }
}

TEST(ConcurrencyStressTest, InvariantsHoldUnderFreeRunningThreads) {
  // Regardless of interleaving: |answer| <= k, every answered document
  // matches the query, and underflow <=> empty answer.
  Rig rig = MakeRig(700, 5);
  AsSimpleEngine defended(*rig.engine, AsSimpleConfig{});
  const auto log = AolLog(rig, 80);

  std::atomic<int> violations{0};
  ThreadPool pool(8);
  pool.ParallelFor(log.size() * 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& query = log[i % log.size()];
      const SearchResult result = defended.Search(query);
      if (result.docs.size() > defended.k()) violations.fetch_add(1);
      if (result.docs.empty() !=
          (result.status == QueryStatus::kUnderflow)) {
        violations.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);

  // Subset-of-match-set, verified serially against the undefended engine.
  for (const auto& query : log) {
    std::vector<DocId> matches = rig.engine->MatchIds(query);
    std::sort(matches.begin(), matches.end());
    for (DocId doc : defended.Search(query).DocIds()) {
      EXPECT_TRUE(std::binary_search(matches.begin(), matches.end(), doc))
          << "non-matching doc in answer of '" << query.canonical() << "'";
    }
  }
}

TEST(ConcurrencyStressTest, ConcurrentBatchesFromSeveralClients) {
  // Whole free-running batches issued from several client threads at once,
  // against one shared defended engine.
  Rig rig = MakeRig(600, 5);
  AsArbiEngine defended(*rig.engine, AsArbiConfig{});
  ThreadPool pool(4);
  const BatchExecutor executor(pool);
  const auto log = AolLog(rig, 120);

  std::vector<std::thread> clients;
  std::atomic<int> violations{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      const auto results = executor.ExecuteConcurrent(defended, log);
      if (results.size() != log.size()) violations.fetch_add(1);
      for (const auto& result : results) {
        if (result.docs.size() > defended.k()) violations.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(violations.load(), 0);

  // All duplicate issues of each query collapsed to one cached answer.
  for (const auto& query : log) {
    const auto a = defended.Search(query).DocIds();
    const auto b = defended.Search(query).DocIds();
    EXPECT_EQ(a, b);
  }
}

TEST(ConcurrencyStressTest, AnswerCacheSurvivesEpochMigrationStorm) {
  // The lock-order edge the static analysis pins down with
  // ASUP_ACQUIRED_BEFORE (epoch before history, DESIGN.md §13), provoked
  // dynamically: searcher threads hold the epoch lock shared and dip into
  // the history lock for cover checks and recording, while a mutator
  // thread publishes new corpus epochs. Each publish makes the next
  // Search() migrate lazily — taking the epoch lock exclusive and then the
  // history lock for compaction — mid-storm. Duplicate queries keep the
  // AnswerCache claim/publish protocol hot across the epoch flips. Under
  // ThreadSanitizer (-DASUP_SANITIZE=thread) any ordering or publication
  // bug the annotations claim to rule out becomes a reported race or
  // deadlock here.
  SyntheticCorpusConfig gen_config;
  gen_config.vocabulary_size = 2000;
  gen_config.num_topics = 12;
  gen_config.words_per_topic = 150;
  gen_config.seed = 23;
  SyntheticCorpusGenerator generator(gen_config);
  CorpusManager manager(generator.Generate(400));
  constexpr size_t kTopK = 5;
  PlainSearchEngine base(manager, kTopK);
  AsArbiEngine defended(base, AsArbiConfig{});

  AolLikeConfig log_config;
  log_config.log_size = 90;
  log_config.unique_queries = 30;  // duplicates exercise the cache
  const auto log = [&] {
    const auto snapshot = manager.Current();
    return AolLikeWorkload(snapshot->corpus(), log_config).log();
  }();

  constexpr int kSearchers = 6;
  constexpr int kRounds = 60;
  constexpr int kEpochs = 4;
  std::atomic<int> violations{0};
  std::atomic<bool> mutating{true};

  std::vector<std::thread> searchers;
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const auto& query = log[(round * (t + 5) + t) % log.size()];
        const SearchResult result = defended.Search(query);
        if (result.docs.size() > kTopK) violations.fetch_add(1);
      }
    });
  }
  std::thread mutator([&] {
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      CorpusDelta delta;
      const Corpus fresh = generator.Generate(60);
      delta.add.assign(fresh.documents().begin(), fresh.documents().end());
      manager.Apply(delta);
      std::this_thread::yield();
    }
    mutating.store(false);
  });
  for (auto& searcher : searchers) searcher.join();
  mutator.join();

  EXPECT_EQ(violations.load(), 0);

  // Quiesced: converge on the final epoch, then every re-issue must be a
  // deterministic (cached) answer at that epoch.
  defended.MigrateToCurrentEpoch();
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
  EXPECT_GE(defended.stats().epoch_migrations, 1u);
  for (const auto& query : log) {
    const auto first = defended.Search(query).DocIds();
    EXPECT_EQ(defended.Search(query).DocIds(), first)
        << "query '" << query.canonical() << "'";
  }
}

TEST(ConcurrencyStressTest, DeclineSameQuerySameAnswerUnderFreeRunningThreads) {
  // AS-DECLINE under free-running threads: correlated queries race the
  // history (cover searches against recordings), duplicates race the
  // answer cache. Whatever the interleaving, each query has one answer,
  // a refusal is empty, and no answer exceeds k.
  Rig rig = MakeTopicalRig(1050, 50);
  AsDeclineEngine defended(*rig.engine, AsDeclineConfig{});
  std::vector<KeywordQuery> log;
  for (const char* w : {"game", "team", "score", "league", "coach",
                        "season", "player", "match", "win"}) {
    log.push_back(rig.Q(std::string("sports ") + w));
  }
  log.push_back(rig.Q("sports"));

  constexpr size_t kIssues = 400;
  std::vector<KeywordQuery> issues;
  for (size_t i = 0; i < kIssues; ++i) {
    issues.push_back(log[(i * 7 + i / log.size()) % log.size()]);
  }
  ThreadPool pool(8);
  const auto results = BatchExecutor(pool).ExecuteConcurrent(defended, issues);
  ASSERT_EQ(results.size(), issues.size());

  std::map<std::string, std::vector<DocId>> seen;
  for (size_t i = 0; i < issues.size(); ++i) {
    const SearchResult& result = results[i];
    EXPECT_LE(result.docs.size(), defended.k());
    if (result.status == QueryStatus::kDeclined) {
      EXPECT_TRUE(result.docs.empty());
    }
    auto [it, inserted] =
        seen.try_emplace(issues[i].canonical(), result.DocIds());
    if (!inserted) {
      EXPECT_EQ(it->second, result.DocIds())
          << "query '" << issues[i].canonical() << "'";
    }
  }
  // Every distinct query was either refused or answered and recorded
  // (empty answers are not recorded), exactly once.
  const AsDeclineStats stats = defended.stats();
  EXPECT_EQ(stats.declined + stats.simple_answers, log.size());
  EXPECT_LE(defended.history().NumQueries(), stats.simple_answers);
  EXPECT_EQ(stats.cache_hits, kIssues - log.size());
  for (const auto& query : log) {
    EXPECT_EQ(defended.Search(query).DocIds(), seen[query.canonical()]);
  }
}

}  // namespace
}  // namespace asup
