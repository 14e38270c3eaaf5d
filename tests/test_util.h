#ifndef ASUP_TESTS_TEST_UTIL_H_
#define ASUP_TESTS_TEST_UTIL_H_

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "asup/engine/search_engine.h"
#include "asup/index/inverted_index.h"
#include "asup/text/synthetic_corpus.h"

namespace asup {
namespace testing_util {

/// A self-owning corpus + index + engine rig for tests.
struct Rig {
  std::unique_ptr<SyntheticCorpusGenerator> generator;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<Corpus> held_out;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<PlainSearchEngine> engine;

  KeywordQuery Q(const std::string& text) const {
    return KeywordQuery::Parse(corpus->vocabulary(), text);
  }
};

inline Rig MakeRig(size_t corpus_size, size_t k, uint64_t seed = 7,
                   size_t held_out_size = 0) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = seed;
  Rig rig;
  rig.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  rig.corpus = std::make_unique<Corpus>(rig.generator->Generate(corpus_size));
  if (held_out_size > 0) {
    rig.held_out =
        std::make_unique<Corpus>(rig.generator->Generate(held_out_size));
  }
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

/// A rig whose seeded topics are rare enough that a topic head word's
/// document frequency is on the order of k — the regime of the paper's
/// correlated-query experiments (Figures 18/19), where virtual query
/// processing triggers reliably.
inline Rig MakeTopicalRig(size_t corpus_size, size_t k, uint64_t seed = 99,
                          size_t held_out_size = 0) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 10000;
  config.num_topics = 96;
  config.words_per_topic = 300;
  config.seed = seed;
  Rig rig;
  rig.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  rig.corpus = std::make_unique<Corpus>(rig.generator->Generate(corpus_size));
  if (held_out_size > 0) {
    rig.held_out =
        std::make_unique<Corpus>(rig.generator->Generate(held_out_size));
  }
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

// Counts the calls a defense makes into the engine layer — the four
// MatchingEngine virtuals — and forwards each to `base`. With `throw_next_top`
// set, the next TopMatchesNodeIn throws instead.
class CountingEngine final : public MatchingEngine {
 public:
  struct Calls {
    size_t top = 0;
    size_t count = 0;
    size_t ids = 0;
    size_t rank = 0;
  };

  explicit CountingEngine(const MatchingEngine& base) : base_(&base) {}

  size_t k() const override { return base_->k(); }
  SnapshotHandle PinSnapshot() const override { return base_->PinSnapshot(); }

  RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                 const QueryNode& node,
                                 std::span<const TermId> score_terms,
                                 size_t limit) const override {
    ++calls.top;
    if (throw_next_top) {
      throw_next_top = false;
      throw std::runtime_error("posting walk failed");
    }
    return base_->TopMatchesNodeIn(snapshot, node, score_terms, limit);
  }
  size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                          const QueryNode& node) const override {
    ++calls.count;
    return base_->MatchCountNodeIn(snapshot, node);
  }
  std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                    const QueryNode& node) const override {
    ++calls.ids;
    return base_->MatchIdsNodeIn(snapshot, node);
  }
  std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query,
                                    std::span<const DocId> docs)
      const override {
    ++calls.rank;
    return base_->RankDocsIn(snapshot, query, docs);
  }

  mutable Calls calls;
  mutable bool throw_next_top = false;

 private:
  const MatchingEngine* base_;
};

}  // namespace testing_util
}  // namespace asup

#endif  // ASUP_TESTS_TEST_UTIL_H_
