// The defense answer path (suppress/defended_engine.h): the host's
// straight-line Algorithm 1/2 code changes NOTHING observable. Four angles
// pin that down:
//
//  1. Oracle equivalence — test-local *monolithic* reimplementations of
//     Algorithm 1 (AS-SIMPLE) and Algorithm 2 (AS-ARBI), written straight
//     from the paper against public components only, must agree with the
//     defended engines document-for-document and score-bit-for-score-bit.
//  2. Cross-execution equivalence — one defended engine run serially, over
//     sharded bases (1/2/4 shards) and through BatchExecutor's
//     deterministic parallel mode must produce bitwise-identical answers,
//     stats, and serialized defense state.
//  3. The segment probe the host emits must equal the segment_index() of
//     an equally-sized corpus — exactly at powers of γ, where the replaced
//     log-ratio arithmetic truncated one segment low.
//  4. The defense event stream — kinds, order and payloads — of each
//     defense over a fixed log is pinned to recorded values.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/sharded_service.h"
#include "asup/index/corpus_manager.h"
#include "asup/index/inverted_index.h"
#include "asup/index/sharded_index.h"
#include "asup/obs/event_log.h"
#include "asup/obs/metrics.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_decline.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/cover_finder.h"
#include "asup/suppress/history_store.h"
#include "asup/suppress/segment.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/document.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/text/vocabulary.h"
#include "asup/util/hash.h"
#include "asup/util/thread_pool.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> Workload(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* text :
       {"sports", "game", "team", "league", "win", "coach", "season",
        "score", "sports game", "team league win", "game score",
        "sports team coach", "notaword", ""}) {
    queries.push_back(rig.Q(text));
  }
  const Vocabulary& vocab = rig.corpus->vocabulary();
  for (TermId t = 0; t < 60 && t < vocab.size(); t += 5) {
    queries.push_back(rig.Q(vocab.WordOf(t)));
    if (t + 1 < vocab.size()) {
      queries.push_back(rig.Q(vocab.WordOf(t) + " " + vocab.WordOf(t + 1)));
    }
  }
  return queries;
}

void ExpectBitwiseEqual(const SearchResult& a, const SearchResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << label;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    EXPECT_EQ(a.docs[i].doc, b.docs[i].doc) << label << " rank " << i;
    EXPECT_EQ(a.docs[i].score, b.docs[i].score) << label << " rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Monolithic oracles: Algorithms 1 and 2 written as one straight-line
// function each, from the paper, over public components only. No pipeline,
// no engine internals — if the chain decomposition drifted by as much as
// one coin flip or one rounding step, these disagree.

class SimpleOracle {
 public:
  SimpleOracle(MatchingEngine& base, const AsSimpleConfig& config)
      : base_(&base),
        config_(config),
        segment_(std::max<size_t>(base.PinSnapshot()->NumDocuments(), 1),
                 config.gamma),
        coin_(config.secret_key),
        m_limit_(static_cast<size_t>(
            std::ceil(config.gamma * static_cast<double>(base.k())))) {}

  SearchResult Search(const KeywordQuery& query) {
    auto cached = cache_.find(query.canonical());
    if (cached != cache_.end()) return cached->second;
    SearchResult result;
    const RankedMatches ranked = base_->TopMatches(query, m_limit_);
    if (ranked.total_matches == 0) {
      result.status = QueryStatus::kUnderflow;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    // Lines 7-13: keyed per-edge coin against Θ_R.
    const double keep = segment_.edge_keep_probability();
    std::vector<ScoredDoc> survivors;
    for (const ScoredDoc& scored : ranked.docs) {
      if (!returned_.insert(scored.doc).second) {
        if (coin_.Accept(query.hash(), scored.doc, keep)) {
          survivors.push_back(scored);
        } else {
          ++docs_hidden_;
        }
      } else {
        survivors.push_back(scored);
      }
    }
    // Line 14: trim to min(|M(q)|/μ, k).
    const size_t lhs_target = static_cast<size_t>(
        std::llround(static_cast<double>(ranked.docs.size()) *
                     segment_.lhs_keep_fraction()));
    const size_t cap = std::min(lhs_target, base_->k());
    if (survivors.size() > cap) {
      docs_trimmed_ += survivors.size() - cap;
      survivors.resize(cap);
    }
    result.docs = std::move(survivors);
    if (result.docs.empty()) {
      result.status = QueryStatus::kUnderflow;
    } else if (static_cast<double>(ranked.total_matches) >
               segment_.mu() * static_cast<double>(base_->k())) {
      result.status = QueryStatus::kOverflow;
    } else {
      result.status = QueryStatus::kValid;
    }
    cache_.emplace(query.canonical(), result);
    return result;
  }

  const std::set<DocId>& activated() const { return returned_; }
  uint64_t docs_hidden() const { return docs_hidden_; }
  uint64_t docs_trimmed() const { return docs_trimmed_; }

 private:
  MatchingEngine* base_;
  AsSimpleConfig config_;
  IndistinguishableSegment segment_;
  DeterministicCoin coin_;
  size_t m_limit_;
  std::set<DocId> returned_;  // Θ_R by universe id
  std::map<std::string, SearchResult> cache_;
  uint64_t docs_hidden_ = 0;
  uint64_t docs_trimmed_ = 0;
};

class ArbiOracle {
 public:
  ArbiOracle(MatchingEngine& base, const AsArbiConfig& config)
      : base_(&base),
        config_(config),
        inner_(base, [&config] {
          AsSimpleConfig inner = config.simple;
          inner.cache_answers = false;
          return inner;
        }()),
        segment_(std::max<size_t>(base.PinSnapshot()->NumDocuments(), 1),
                 config.simple.gamma),
        finder_(history_, config.cover_size, config.cover_ratio) {}

  SearchResult Search(const KeywordQuery& query) {
    auto cached = cache_.find(query.canonical());
    if (cached != cache_.end()) return cached->second;
    SearchResult result;
    const size_t match_count = base_->MatchCount(query);
    if (match_count == 0) {
      result.status = QueryStatus::kUnderflow;
      cache_.emplace(query.canonical(), result);
      return result;
    }
    const double max_coverable =
        static_cast<double>(config_.cover_size * base_->k());
    if (config_.cover_ratio * static_cast<double>(match_count) <=
        max_coverable) {
      const std::vector<DocId> match_ids = base_->MatchIds(query);
      const CoverResult cover = finder_.Find(match_ids);
      if (cover.found) {
        ++virtual_answers_;
        // Virtual query processing: q ∩ (Res(q1) ∪ ... ∪ Res(qu)).
        std::vector<DocId> pool;
        for (uint32_t qi : cover.query_indices) {
          const auto& answer = history_.QueryAt(qi).answer;
          pool.insert(pool.end(), answer.begin(), answer.end());
        }
        std::sort(pool.begin(), pool.end());
        pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
        std::vector<DocId> virtual_ids;
        std::set_intersection(match_ids.begin(), match_ids.end(),
                              pool.begin(), pool.end(),
                              std::back_inserter(virtual_ids));
        if (virtual_ids.empty()) {
          result.status = QueryStatus::kUnderflow;
        } else {
          std::vector<ScoredDoc> ranked = base_->RankDocs(query, virtual_ids);
          if (ranked.size() > base_->k()) ranked.resize(base_->k());
          result.docs = std::move(ranked);
          result.status = static_cast<double>(match_ids.size()) >
                                  segment_.mu() *
                                      static_cast<double>(base_->k())
                              ? QueryStatus::kOverflow
                              : QueryStatus::kValid;
        }
        cache_.emplace(query.canonical(), result);
        return result;
      }
    }
    ++simple_answers_;
    result = inner_.Search(query);
    if (!result.docs.empty()) history_.Record(query, result.DocIds());
    cache_.emplace(query.canonical(), result);
    return result;
  }

  uint64_t virtual_answers() const { return virtual_answers_; }
  uint64_t simple_answers() const { return simple_answers_; }
  const HistoryStore& history() const { return history_; }

 private:
  MatchingEngine* base_;
  AsArbiConfig config_;
  SimpleOracle inner_;
  IndistinguishableSegment segment_;
  HistoryStore history_;
  CoverFinder finder_;
  std::map<std::string, SearchResult> cache_;
  uint64_t virtual_answers_ = 0;
  uint64_t simple_answers_ = 0;
};

TEST(PipelineOracleTest, AsSimpleChainMatchesMonolithicAlgorithm1) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  config.gamma = 2.0;
  AsSimpleEngine chain(*rig.engine, config);
  SimpleOracle oracle(*rig.engine, config);

  const auto queries = Workload(rig);
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  // Re-issues replay from both caches identically.
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "reissue q=\"" + q.canonical() + "\"");
  }
  // Θ_R and the hide/trim tallies evolved identically.
  EXPECT_EQ(chain.NumActivatedDocs(), oracle.activated().size());
  for (DocId doc : oracle.activated()) {
    EXPECT_TRUE(chain.IsActivated(doc)) << "doc " << doc;
  }
  EXPECT_EQ(chain.stats().docs_hidden, oracle.docs_hidden());
  EXPECT_EQ(chain.stats().docs_trimmed, oracle.docs_trimmed());
}

TEST(PipelineOracleTest, AsSimpleChainMatchesOracleAtGammaFive) {
  Rig rig = MakeRig(450, 5);
  AsSimpleConfig config;
  config.gamma = 5.0;
  AsSimpleEngine chain(*rig.engine, config);
  SimpleOracle oracle(*rig.engine, config);
  for (const KeywordQuery& q : Workload(rig)) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  EXPECT_EQ(chain.stats().docs_hidden, oracle.docs_hidden());
  EXPECT_EQ(chain.stats().docs_trimmed, oracle.docs_trimmed());
}

TEST(PipelineOracleTest, AsArbiChainMatchesMonolithicAlgorithm2) {
  Rig rig = MakeTopicalRig(600, 5);
  AsArbiConfig config;
  config.simple.gamma = 2.0;
  AsArbiEngine chain(*rig.engine, config);
  ArbiOracle oracle(*rig.engine, config);

  const auto queries = Workload(rig);
  for (const KeywordQuery& q : queries) {
    ExpectBitwiseEqual(chain.Search(q), oracle.Search(q),
                       "q=\"" + q.canonical() + "\"");
  }
  // The chain took the same virtual/fall-through decisions and recorded
  // the same history as the straight-line algorithm.
  EXPECT_GT(oracle.virtual_answers() + oracle.simple_answers(), 0u);
  EXPECT_EQ(chain.stats().virtual_answers, oracle.virtual_answers());
  EXPECT_EQ(chain.stats().simple_answers, oracle.simple_answers());
  ASSERT_EQ(chain.history().NumQueries(), oracle.history().NumQueries());
  for (size_t i = 0; i < oracle.history().NumQueries(); ++i) {
    EXPECT_EQ(chain.history().QueryAt(i).answer,
              oracle.history().QueryAt(i).answer)
        << "history entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Cross-execution: serial vs sharded (1/2/4) vs deterministic-parallel.

TEST(PipelineCrossExecutionTest, AsSimpleIsBitwiseIdenticalAcrossExecutions) {
  Rig rig = MakeRig(520, 5);
  const auto queries = Workload(rig);
  AsSimpleConfig config;
  config.gamma = 2.0;

  // Reference: serial over the single index.
  AsSimpleEngine serial(*rig.engine, config);
  std::vector<SearchResult> expected;
  for (const KeywordQuery& q : queries) expected.push_back(serial.Search(q));
  std::ostringstream expected_state;
  ASSERT_TRUE(SaveDefenseState(serial, expected_state));

  // Deterministic parallel over the same base.
  {
    ThreadPool pool(4);
    AsSimpleEngine parallel(*rig.engine, config);
    const std::vector<SearchResult> results =
        BatchExecutor(pool).ExecuteDeterministic(parallel, queries);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectBitwiseEqual(results[i], expected[i],
                         "deterministic-parallel #" + std::to_string(i));
    }
    EXPECT_EQ(parallel.stats().docs_hidden, serial.stats().docs_hidden);
    EXPECT_EQ(parallel.stats().docs_trimmed, serial.stats().docs_trimmed);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(parallel, state));
    EXPECT_EQ(state.str(), expected_state.str());
  }

  // Sharded bases, every shard count.
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService base(index, rig.engine->k(), nullptr);
    AsSimpleEngine over_sharded(base, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEqual(over_sharded.Search(queries[i]), expected[i],
                         "shards=" + std::to_string(shards) + " #" +
                             std::to_string(i));
    }
    EXPECT_EQ(over_sharded.stats().docs_hidden, serial.stats().docs_hidden);
    EXPECT_EQ(over_sharded.stats().docs_trimmed, serial.stats().docs_trimmed);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(over_sharded, state));
    EXPECT_EQ(state.str(), expected_state.str()) << "shards=" << shards;
  }
}

TEST(PipelineCrossExecutionTest, AsArbiIsBitwiseIdenticalAcrossExecutions) {
  Rig rig = MakeTopicalRig(600, 5);
  const auto queries = Workload(rig);
  AsArbiConfig config;
  config.simple.gamma = 2.0;

  AsArbiEngine serial(*rig.engine, config);
  std::vector<SearchResult> expected;
  for (const KeywordQuery& q : queries) expected.push_back(serial.Search(q));
  std::ostringstream expected_state;
  ASSERT_TRUE(SaveDefenseState(serial, expected_state));

  {
    ThreadPool pool(4);
    AsArbiEngine parallel(*rig.engine, config);
    const std::vector<SearchResult> results =
        BatchExecutor(pool).ExecuteDeterministic(parallel, queries);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectBitwiseEqual(results[i], expected[i],
                         "deterministic-parallel #" + std::to_string(i));
    }
    EXPECT_EQ(parallel.stats().virtual_answers,
              serial.stats().virtual_answers);
    EXPECT_EQ(parallel.stats().simple_answers, serial.stats().simple_answers);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(parallel, state));
    EXPECT_EQ(state.str(), expected_state.str());
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedInvertedIndex index(*rig.corpus, shards);
    ShardedSearchService base(index, rig.engine->k(), nullptr);
    AsArbiEngine over_sharded(base, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEqual(over_sharded.Search(queries[i]), expected[i],
                         "shards=" + std::to_string(shards) + " #" +
                             std::to_string(i));
    }
    EXPECT_EQ(over_sharded.stats().virtual_answers,
              serial.stats().virtual_answers);
    EXPECT_EQ(over_sharded.stats().simple_answers,
              serial.stats().simple_answers);
    std::ostringstream state;
    ASSERT_TRUE(SaveDefenseState(over_sharded, state));
    EXPECT_EQ(state.str(), expected_state.str()) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// The segment probe at γ-power boundaries.

#if ASUP_METRICS_ENABLED

/// A corpus of `total` documents in which the word "probe" appears in
/// every document and "nearly" in all but one — exact match counts for
/// boundary tests.
struct ExactCorpusRig {
  std::shared_ptr<Vocabulary> vocab;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<PlainSearchEngine> engine;
};

ExactCorpusRig MakeExactRig(size_t total, size_t k) {
  ExactCorpusRig rig;
  rig.vocab = std::make_shared<Vocabulary>();
  const TermId probe = rig.vocab->AddWord("probe");
  const TermId nearly = rig.vocab->AddWord("nearly");
  std::vector<Document> docs;
  docs.reserve(total);
  for (DocId id = 0; id < total; ++id) {
    std::vector<TermId> tokens{probe};
    if (id != 0) tokens.push_back(nearly);
    tokens.push_back(rig.vocab->AddWord("filler" + std::to_string(id)));
    docs.emplace_back(id, tokens);
  }
  rig.corpus = std::make_unique<Corpus>(rig.vocab, std::move(docs));
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

std::vector<int64_t> ProbesIn(const obs::EventLog& log) {
  std::vector<int64_t> probes;
  for (const obs::Event& event : log.Snapshot()) {
    if (event.kind == obs::EventKind::kSegmentProbe) {
      probes.push_back(event.a);
    }
  }
  return probes;
}

TEST(SegmentProbeEventTest, ProbeEqualsSegmentIndexAtExactGammaPowers) {
  // γ = 10, |Sel(q)| = 1000 = 10^3: the probe must report segment 3 —
  // trunc(log(1000)/log(10)) reported 2 and made every boundary-straddling
  // query pair look like a segment crossing (the fig21 feature this fed).
  struct Case {
    double gamma;
    size_t count;  // exact power of gamma
    int64_t expected;
  };
  for (const Case c : {Case{2.0, 1024, 10}, Case{5.0, 625, 4},
                       Case{10.0, 1000, 3}}) {
    ExactCorpusRig rig = MakeExactRig(c.count, 5);
    AsSimpleConfig config;
    config.gamma = c.gamma;
    AsSimpleEngine defended(*rig.engine, config);

    obs::EventLog log(4096);
    obs::InstallEventLog(&log);
    defended.Search(KeywordQuery::Parse(*rig.vocab, "probe"));   // γ^i docs
    defended.Search(KeywordQuery::Parse(*rig.vocab, "nearly"));  // γ^i − 1
    obs::InstallEventLog(nullptr);

    const std::vector<int64_t> probes = ProbesIn(log);
    ASSERT_EQ(probes.size(), 2u) << "gamma=" << c.gamma;
    EXPECT_EQ(probes[0], c.expected) << "gamma=" << c.gamma;
    EXPECT_EQ(probes[1], c.expected - 1) << "gamma=" << c.gamma;
    // The probe is literally the segment arithmetic of an equally-sized
    // corpus — one source of truth for "which segment".
    EXPECT_EQ(probes[0],
              IndistinguishableSegment(c.count, c.gamma).segment_index());
    EXPECT_EQ(probes[1],
              IndistinguishableSegment(c.count - 1, c.gamma).segment_index());
  }
}

#endif  // ASUP_METRICS_ENABLED

// ---------------------------------------------------------------------------
// The defense event stream, pinned. The watchtower and the fig21 gate read
// per-query events in emit order, so the kinds, their order within a query
// and their payloads are behaviour: one log with repeats (cache hits),
// correlated families (covers, virtual answers, declines) and one publish
// (a migration), replayed through each defense, must emit exactly the
// stream recorded here.

#if ASUP_METRICS_ENABLED

struct PinnedStream {
  size_t events = 0;
  uint64_t hash = 0;
  std::set<int> kinds;  // obs::EventKind values seen

  bool Saw(int kind) const { return kinds.count(kind) != 0; }
};

/// Runs `log` through `defense`, publishing `delta` to `manager` after
/// `publish_at` queries, and returns the count and hash of the events the
/// defense emitted, in sequence order (sequence numbers excluded).
template <typename Defense>
PinnedStream EventStreamOf(Defense& defense, CorpusManager& manager,
                           const std::vector<KeywordQuery>& log,
                           size_t publish_at, const CorpusDelta& delta) {
  obs::EventLog events(size_t{1} << 18);
  obs::InstallEventLog(&events);
  for (size_t i = 0; i < log.size(); ++i) {
    if (i == publish_at) manager.Apply(delta);
    defense.Search(log[i]);
  }
  obs::InstallEventLog(nullptr);
  EXPECT_EQ(events.dropped(), 0u);
  PinnedStream stream;
  std::string flat;
  const std::vector<obs::Event> snapshot = events.Snapshot();
  for (const obs::Event& event : snapshot) {
    stream.kinds.insert(static_cast<int>(event.kind));
    flat += std::to_string(static_cast<int>(event.kind)) + ',' +
            std::to_string(event.client) + ',' +
            std::to_string(event.query_hash) + ',' + std::to_string(event.a) +
            ',' + std::to_string(event.b) + ';';
  }
  stream.events = snapshot.size();
  stream.hash = HashString(flat);
  // Every defense reaches these kinds on this log.
  for (const obs::EventKind kind :
       {obs::EventKind::kAnswerHidden, obs::EventKind::kSegmentProbe,
        obs::EventKind::kAnswerTrimmed, obs::EventKind::kCacheHit,
        obs::EventKind::kEpochMigration}) {
    EXPECT_TRUE(stream.Saw(static_cast<int>(kind)))
        << obs::EventKindName(kind);
  }
  return stream;
}

struct EventRig {
  std::unique_ptr<SyntheticCorpusGenerator> generator;
  std::unique_ptr<CorpusManager> manager;
  std::unique_ptr<PlainSearchEngine> engine;
  std::vector<KeywordQuery> log;
  size_t publish_at = 0;
  CorpusDelta delta;
};

EventRig MakeEventRig() {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 10000;
  config.num_topics = 96;
  config.words_per_topic = 300;
  config.seed = 99;
  EventRig rig;
  rig.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  rig.manager =
      std::make_unique<CorpusManager>(rig.generator->Generate(1050));
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.manager, 50);

  const Vocabulary& vocab = rig.manager->Current()->corpus().vocabulary();
  std::vector<std::string> texts = {"sports", "notaword", ""};
  for (const char* w : {"game", "team", "score", "league", "coach", "season",
                        "player", "match", "win"}) {
    texts.push_back(w);
    texts.push_back(std::string("sports ") + w);
  }
  for (TermId t = 0; t < 400 && t < vocab.size(); t += 37) {
    texts.push_back(vocab.WordOf(t));
  }
  std::vector<KeywordQuery> fresh;
  for (size_t i = 0; i < texts.size(); ++i) {
    KeywordQuery q = KeywordQuery::Parse(vocab, texts[i]);
    q.set_client_id(1 + i % 3);
    fresh.push_back(std::move(q));
  }
  // Fresh queries, their repeats, a publish, then all of them again in the
  // new epoch (misses, then hits).
  rig.log = fresh;
  rig.log.insert(rig.log.end(), fresh.begin(), fresh.begin() + 12);
  rig.publish_at = rig.log.size();
  rig.log.insert(rig.log.end(), fresh.begin(), fresh.end());
  rig.log.insert(rig.log.end(), fresh.begin(), fresh.end());

  const Corpus added = rig.generator->Generate(60);
  rig.delta.add.assign(added.documents().begin(), added.documents().end());
  const Corpus& current = rig.manager->Current()->corpus();
  for (size_t pos = 0; pos < current.size(); pos += 7) {
    rig.delta.remove.push_back(current.documents()[pos].id());
  }
  return rig;
}

#endif  // ASUP_METRICS_ENABLED

// Values recorded on the processor-chain implementation.
TEST(PipelineEventTest, DefenseEventsArePinned) {
#if !ASUP_METRICS_ENABLED
  GTEST_SKIP() << "events compile out with -DASUP_METRICS=OFF";
#else
  {
    EventRig rig = MakeEventRig();
    AsSimpleEngine simple(*rig.engine, AsSimpleConfig{});
    const PinnedStream stream = EventStreamOf(simple, *rig.manager, rig.log,
                                              rig.publish_at, rig.delta);
    EXPECT_EQ(stream.events, 180u);
    EXPECT_EQ(stream.hash, 13035221300298345488u);
  }
  {
    EventRig rig = MakeEventRig();
    AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
    const PinnedStream stream = EventStreamOf(arbi, *rig.manager, rig.log,
                                              rig.publish_at, rig.delta);
    EXPECT_GT(arbi.stats().virtual_answers, 0u);
    EXPECT_TRUE(stream.Saw(static_cast<int>(obs::EventKind::kCoverFound)));
    EXPECT_TRUE(
        stream.Saw(static_cast<int>(obs::EventKind::kVirtualAnswer)));
    EXPECT_EQ(stream.events, 168u);
    EXPECT_EQ(stream.hash, 8715848254396011676u);
  }
  {
    EventRig rig = MakeEventRig();
    AsDeclineEngine decline(*rig.engine, AsDeclineConfig{});
    const PinnedStream stream = EventStreamOf(decline, *rig.manager, rig.log,
                                              rig.publish_at, rig.delta);
    EXPECT_GT(decline.stats().declined, 0u);
    EXPECT_EQ(stream.events, 124u);
    EXPECT_EQ(stream.hash, 6769335682480982403u);
  }
#endif
}

}  // namespace
}  // namespace asup
