// Incremental-vs-rebuild equivalence at the full-engine level: a defended
// engine whose corpus is maintained through CorpusManager deltas must be
// indistinguishable — answers, suppression decisions, and state_io bytes —
// from the same engine over a freshly built index, and from itself across
// every execution configuration (serial / sharded 1,2,4 / deterministic
// parallel batches).

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/thread_pool.h"

namespace asup {
namespace {

constexpr size_t kK = 5;
constexpr size_t kInitialDocs = 360;

SyntheticCorpusConfig GenConfig() {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = 29;
  return config;
}

const std::vector<std::string>& QueryTexts() {
  static const std::vector<std::string> texts = {
      "sports",      "game",        "sports game", "team",
      "sports team", "score",       "league",      "game team",
      "coach",       "game score",  "season",      "team league",
  };
  return texts;
}

/// The epoch schedule every configuration replays: (add, remove) per delta,
/// with the full query list run before the first delta and after each one.
struct DeltaShape {
  size_t add;
  size_t remove;
};
const std::vector<DeltaShape>& Schedule() {
  static const std::vector<DeltaShape> shapes = {
      {70, 0}, {0, 45}, {60, 30}, {25, 25}};
  return shapes;
}

CorpusDelta MakeDelta(SyntheticCorpusGenerator& generator,
                      const Corpus& current, const DeltaShape& shape) {
  CorpusDelta delta;
  if (shape.add > 0) {
    const Corpus fresh = generator.Generate(shape.add);
    delta.add.assign(fresh.documents().begin(), fresh.documents().end());
  }
  if (shape.remove > 0) {
    const size_t stride = std::max<size_t>(1, current.size() / shape.remove);
    for (size_t pos = 0;
         pos < current.size() && delta.remove.size() < shape.remove;
         pos += stride) {
      delta.remove.push_back(current.documents()[pos].id());
    }
  }
  return delta;
}

enum class Exec {
  kSerialPlain,
  kSharded1,
  kSharded2,
  kSharded4,
  kParallelDeterministic,
};

struct RunOutcome {
  std::vector<SearchResult> answers;
  std::string state_bytes;
  uint64_t docs_hidden = 0;
  uint64_t docs_trimmed = 0;
  uint64_t epoch_migrations = 0;
};

size_t ShardsOf(Exec exec) {
  switch (exec) {
    case Exec::kSharded1: return 1;
    case Exec::kSharded2: return 2;
    case Exec::kSharded4: return 4;
    default: return 0;
  }
}

/// Replays the full schedule under one execution configuration and returns
/// everything the equivalence claims cover.
RunOutcome RunAsSimple(Exec exec) {
  SyntheticCorpusGenerator generator(GenConfig());
  CorpusManager::Options options;
  options.num_shards = ShardsOf(exec);
  CorpusManager manager(generator.Generate(kInitialDocs), options);

  // The sharded service requires a sharded manager; construct only the
  // service this configuration actually uses.
  std::unique_ptr<PlainSearchEngine> plain;
  std::unique_ptr<ShardedSearchService> sharded;
  MatchingEngine* base = nullptr;
  if (options.num_shards >= 1) {
    sharded = std::make_unique<ShardedSearchService>(manager, kK);
    base = sharded.get();
  } else {
    plain = std::make_unique<PlainSearchEngine>(manager, kK);
    base = plain.get();
  }
  AsSimpleEngine defended(*base, AsSimpleConfig{});
  ThreadPool pool(4);
  BatchExecutor executor(pool);

  const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
  std::vector<KeywordQuery> queries;
  for (const std::string& text : QueryTexts()) {
    queries.push_back(KeywordQuery::Parse(vocabulary, text));
  }

  RunOutcome outcome;
  const auto run_batch = [&] {
    if (exec == Exec::kParallelDeterministic) {
      auto results = executor.ExecuteDeterministic(defended, queries);
      outcome.answers.insert(outcome.answers.end(), results.begin(),
                             results.end());
    } else {
      for (const KeywordQuery& query : queries) {
        outcome.answers.push_back(defended.Search(query));
      }
    }
  };

  run_batch();
  for (const DeltaShape& shape : Schedule()) {
    manager.Apply(MakeDelta(generator, manager.Current()->corpus(), shape));
    run_batch();
  }

  std::stringstream state;
  EXPECT_TRUE(SaveDefenseState(defended, state));
  outcome.state_bytes = state.str();
  const AsSimpleStats stats = defended.stats();
  outcome.docs_hidden = stats.docs_hidden;
  outcome.docs_trimmed = stats.docs_trimmed;
  outcome.epoch_migrations = stats.epoch_migrations;
  EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
  return outcome;
}

void ExpectSameAnswers(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].status, b[i].status) << "query " << i;
    ASSERT_EQ(a[i].docs.size(), b[i].docs.size()) << "query " << i;
    for (size_t d = 0; d < a[i].docs.size(); ++d) {
      ASSERT_EQ(a[i].docs[d].doc, b[i].docs[d].doc) << "query " << i;
      ASSERT_EQ(a[i].docs[d].score, b[i].docs[d].score) << "query " << i;
    }
  }
}

TEST(EpochEquivalenceTest, AsSimpleIdenticalAcrossExecutionConfigs) {
  const RunOutcome reference = RunAsSimple(Exec::kSerialPlain);
  EXPECT_EQ(reference.epoch_migrations, Schedule().size());
  for (Exec exec : {Exec::kSharded1, Exec::kSharded2, Exec::kSharded4,
                    Exec::kParallelDeterministic}) {
    SCOPED_TRACE(static_cast<int>(exec));
    const RunOutcome outcome = RunAsSimple(exec);
    ExpectSameAnswers(reference.answers, outcome.answers);
    EXPECT_EQ(reference.docs_hidden, outcome.docs_hidden);
    EXPECT_EQ(reference.docs_trimmed, outcome.docs_trimmed);
    EXPECT_EQ(reference.epoch_migrations, outcome.epoch_migrations);
    // The strongest form of the claim: the persisted suppression state is
    // bitwise identical, byte for byte.
    EXPECT_EQ(reference.state_bytes, outcome.state_bytes);
  }
}

TEST(EpochEquivalenceTest, MaintainedEngineEqualsFreshEngineOnFinalEpoch) {
  // Apply the whole schedule with no queries, then query: the maintained
  // engine (one lazy migration, merged indexes) must behave bitwise like
  // an engine built fresh over the final corpus — answers and state bytes.
  SyntheticCorpusGenerator managed_gen(GenConfig());
  CorpusManager manager(managed_gen.Generate(kInitialDocs));
  SyntheticCorpusGenerator fresh_gen(GenConfig());
  Corpus reference = fresh_gen.Generate(kInitialDocs);
  for (const DeltaShape& shape : Schedule()) {
    manager.Apply(MakeDelta(managed_gen, manager.Current()->corpus(), shape));
    reference = ApplyDelta(reference, MakeDelta(fresh_gen, reference, shape));
  }

  PlainSearchEngine maintained_base(manager, kK);
  AsSimpleEngine maintained(maintained_base, AsSimpleConfig{});
  const InvertedIndex fresh_index(reference);
  PlainSearchEngine fresh_base(fresh_index, kK);
  AsSimpleEngine fresh(fresh_base, AsSimpleConfig{});

  const Vocabulary& vocabulary = reference.vocabulary();
  for (const std::string& text : QueryTexts()) {
    const KeywordQuery query = KeywordQuery::Parse(vocabulary, text);
    const SearchResult a = maintained.Search(query);
    const SearchResult b = fresh.Search(query);
    ASSERT_EQ(a.status, b.status) << text;
    ASSERT_EQ(a.docs.size(), b.docs.size()) << text;
    for (size_t d = 0; d < a.docs.size(); ++d) {
      ASSERT_EQ(a.docs[d].doc, b.docs[d].doc) << text;
      ASSERT_EQ(a.docs[d].score, b.docs[d].score) << text;
    }
  }
  EXPECT_EQ(maintained.NumActivatedDocs(), fresh.NumActivatedDocs());

  std::stringstream maintained_state;
  std::stringstream fresh_state;
  ASSERT_TRUE(SaveDefenseState(maintained, maintained_state));
  ASSERT_TRUE(SaveDefenseState(fresh, fresh_state));
  EXPECT_EQ(maintained_state.str(), fresh_state.str());

  // And the bytes interoperate: the maintained engine's state restores
  // into the fresh engine (content fingerprints agree by construction).
  std::stringstream replay(maintained_state.str());
  AsSimpleEngine restored(fresh_base, AsSimpleConfig{});
  EXPECT_TRUE(LoadDefenseState(restored, replay));
  EXPECT_EQ(restored.NumActivatedDocs(), maintained.NumActivatedDocs());
}

TEST(EpochEquivalenceTest, AsArbiIdenticalAcrossConfigsAndVsFresh) {
  // The AS-ARBI pipeline (history recording, cover evaluation, virtual
  // answers) layered over epoch maintenance: serial-plain vs sharded(2) vs
  // deterministic-parallel, plus the maintained-vs-fresh comparison on the
  // final epoch.
  const auto run = [](size_t shards, bool deterministic) {
    SyntheticCorpusGenerator generator(GenConfig());
    CorpusManager::Options options;
    options.num_shards = shards;
    CorpusManager manager(generator.Generate(kInitialDocs), options);
    std::unique_ptr<PlainSearchEngine> plain;
    std::unique_ptr<ShardedSearchService> sharded;
    MatchingEngine* base = nullptr;
    if (shards >= 1) {
      sharded = std::make_unique<ShardedSearchService>(manager, kK);
      base = sharded.get();
    } else {
      plain = std::make_unique<PlainSearchEngine>(manager, kK);
      base = plain.get();
    }
    AsArbiEngine defended(*base, AsArbiConfig{});
    ThreadPool pool(4);
    BatchExecutor executor(pool);

    const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
    std::vector<KeywordQuery> queries;
    for (const std::string& text : QueryTexts()) {
      queries.push_back(KeywordQuery::Parse(vocabulary, text));
    }
    std::vector<SearchResult> answers;
    const auto run_batch = [&] {
      if (deterministic) {
        auto results = executor.ExecuteDeterministic(defended, queries);
        answers.insert(answers.end(), results.begin(), results.end());
      } else {
        for (const KeywordQuery& query : queries) {
          answers.push_back(defended.Search(query));
        }
      }
    };
    run_batch();
    for (const DeltaShape& shape : Schedule()) {
      manager.Apply(
          MakeDelta(generator, manager.Current()->corpus(), shape));
      run_batch();
    }
    std::stringstream state;
    EXPECT_TRUE(SaveDefenseState(defended, state));
    EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
    EXPECT_EQ(defended.stats().epoch_migrations, Schedule().size());
    return std::make_pair(std::move(answers), state.str());
  };

  const auto reference = run(0, false);
  for (const auto& [shards, deterministic] :
       {std::pair<size_t, bool>{2, false}, {0, true}}) {
    SCOPED_TRACE(shards);
    const auto outcome = run(shards, deterministic);
    ExpectSameAnswers(reference.first, outcome.first);
    EXPECT_EQ(reference.second, outcome.second);
  }
}

TEST(EpochEquivalenceTest, AsDeclineSerialEqualsDeterministicParallel) {
  // AS-DECLINE on the shared host: the decline trigger, the history and
  // the AS-SIMPLE stages replay bitwise under deterministic-parallel
  // batches, across every publish of the schedule.
  struct Outcome {
    std::vector<SearchResult> answers;
    std::vector<std::vector<DocId>> history;
    AsDeclineStats stats;
  };
  const auto run = [](bool deterministic) {
    SyntheticCorpusGenerator generator(GenConfig());
    CorpusManager manager(generator.Generate(kInitialDocs));
    PlainSearchEngine base(manager, kK);
    AsDeclineEngine defended(base, AsDeclineConfig{});
    ThreadPool pool(4);
    BatchExecutor executor(pool);
    const Vocabulary& vocabulary = manager.Current()->corpus().vocabulary();
    std::vector<KeywordQuery> queries;
    for (const std::string& text : QueryTexts()) {
      queries.push_back(KeywordQuery::Parse(vocabulary, text));
    }
    Outcome outcome;
    const auto run_batch = [&] {
      if (deterministic) {
        auto results = executor.ExecuteDeterministic(defended, queries);
        outcome.answers.insert(outcome.answers.end(), results.begin(),
                               results.end());
      } else {
        for (const KeywordQuery& query : queries) {
          outcome.answers.push_back(defended.Search(query));
        }
      }
    };
    run_batch();
    for (const DeltaShape& shape : Schedule()) {
      manager.Apply(
          MakeDelta(generator, manager.Current()->corpus(), shape));
      run_batch();
    }
    EXPECT_EQ(defended.StateEpoch(), manager.CurrentEpoch());
    for (size_t i = 0; i < defended.history().NumQueries(); ++i) {
      outcome.history.push_back(defended.history().QueryAt(i).answer);
    }
    outcome.stats = defended.stats();
    return outcome;
  };

  const Outcome serial = run(false);
  const Outcome parallel = run(true);
  ExpectSameAnswers(serial.answers, parallel.answers);
  EXPECT_EQ(serial.history, parallel.history);
  EXPECT_EQ(serial.stats.declined, parallel.stats.declined);
  EXPECT_EQ(serial.stats.simple_answers, parallel.stats.simple_answers);
  EXPECT_EQ(serial.stats.cache_hits, parallel.stats.cache_hits);
}

}  // namespace
}  // namespace asup
