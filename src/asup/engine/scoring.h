#ifndef ASUP_ENGINE_SCORING_H_
#define ASUP_ENGINE_SCORING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asup/index/inverted_index.h"
#include "asup/text/vocabulary.h"

namespace asup {

/// Corpus-wide inputs to scoring for one query, decoupled from any single
/// InvertedIndex so a sharded engine can score shard-local matches against
/// *global* statistics. Scores are bitwise identical to a single-index
/// engine exactly when `stats` and the document frequencies the factors
/// were computed from describe the whole logical corpus (the scoring
/// arithmetic consumes nothing else that spans shards).
struct ScoringContext {
  /// Statistics of the logical corpus (num_documents, average_doc_length).
  const IndexStats* stats = nullptr;

  /// The scorer's per-term factor, in query-term order (parallel to the
  /// frequencies ScoreMatch receives), computed once per query from the
  /// term's corpus-wide document frequency: BM25's idf, TF-IDF's
  /// log(n/df).
  std::vector<double> term_factors;
};

/// The engine's ranking function.
///
/// The paper treats the enterprise scoring function as deterministic and
/// proprietary (unknown to external users); any fixed implementation of
/// this interface plays that role. Ties are broken by the engine on
/// ascending document id, so ranking is a strict total order.
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  /// Builds the scoring context of `terms` against `index` — an
  /// InvertedIndex (the single-index engine's whole corpus) or a
  /// ShardedInvertedIndex (global stats and summed per-shard document
  /// frequencies): both expose stats() and DocumentFrequency().
  template <typename Index>
  ScoringContext MakeContext(const Index& index,
                             std::span<const TermId> terms) const {
    ScoringContext context;
    context.stats = &index.stats();
    context.term_factors.reserve(terms.size());
    for (TermId term : terms) {
      context.term_factors.push_back(
          TermFactor(index.stats(), index.DocumentFrequency(term)));
    }
    return context;
  }

  /// Relevance of a matched document to the query. Higher is better.
  /// `doc_length` is the matched document's token count; `freqs` holds its
  /// per-query-term frequencies (parallel to context.term_factors).
  virtual double ScoreMatch(const ScoringContext& context, double doc_length,
                            std::span<const uint32_t> freqs) const = 0;

  /// Scores `doc` with its own frequencies of `terms` (query-term order) —
  /// for callers holding documents rather than a posting walk.
  double ScoreDocument(const ScoringContext& context, const Document& doc,
                       std::span<const TermId> terms) const;

 protected:
  /// The per-term factor of a term with document frequency `df` in the
  /// corpus `stats` describes.
  virtual double TermFactor(const IndexStats& stats, size_t df) const = 0;
};

/// Okapi BM25 — the default ranking function of the substrate engine.
class Bm25Scorer : public ScoringFunction {
 public:
  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75) : k1_(k1), b_(b) {}

  double ScoreMatch(const ScoringContext& context, double doc_length,
                    std::span<const uint32_t> freqs) const override;

 protected:
  double TermFactor(const IndexStats& stats, size_t df) const override;

 private:
  double k1_;
  double b_;
};

/// Classic TF-IDF with log-scaled term frequency; provided as an alternate
/// "proprietary" ranker to demonstrate that the defenses are agnostic to the
/// scoring function. A query term the document lacks (possible under Or and
/// Not trees) contributes 0, as in BM25.
class TfIdfScorer : public ScoringFunction {
 public:
  double ScoreMatch(const ScoringContext& context, double doc_length,
                    std::span<const uint32_t> freqs) const override;

 protected:
  double TermFactor(const IndexStats& stats, size_t df) const override;
};

/// Returns the library's default scorer (BM25 with standard parameters).
std::unique_ptr<ScoringFunction> MakeDefaultScorer();

}  // namespace asup

#endif  // ASUP_ENGINE_SCORING_H_
