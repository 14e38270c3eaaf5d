#include "asup/engine/scoring.h"

#include <cmath>

namespace asup {

double ScoringFunction::ScoreDocument(const ScoringContext& context,
                                      const Document& doc,
                                      std::span<const TermId> terms) const {
  std::vector<uint32_t> freqs;
  freqs.reserve(terms.size());
  for (TermId term : terms) freqs.push_back(doc.FrequencyOf(term));
  return ScoreMatch(context, static_cast<double>(doc.length()), freqs);
}

double Bm25Scorer::TermFactor(const IndexStats& stats, size_t df) const {
  const double n = static_cast<double>(stats.num_documents);
  const double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

double Bm25Scorer::ScoreMatch(const ScoringContext& context, double doc_length,
                              std::span<const uint32_t> freqs) const {
  const IndexStats& stats = *context.stats;
  const double avg_len =
      stats.average_doc_length > 0.0 ? stats.average_doc_length : 1.0;
  const double norm = k1_ * (1.0 - b_ + b_ * doc_length / avg_len);
  double score = 0.0;
  for (size_t i = 0; i < context.term_factors.size(); ++i) {
    const double tf = static_cast<double>(freqs[i]);
    score += context.term_factors[i] * tf * (k1_ + 1.0) / (tf + norm);
  }
  return score;
}

double TfIdfScorer::TermFactor(const IndexStats& stats, size_t df) const {
  if (df == 0) return 0.0;
  return std::log(static_cast<double>(stats.num_documents) /
                  static_cast<double>(df));
}

double TfIdfScorer::ScoreMatch(const ScoringContext& context,
                               double doc_length,
                               std::span<const uint32_t> freqs) const {
  double score = 0.0;
  for (size_t i = 0; i < context.term_factors.size(); ++i) {
    // A term the document lacks adds nothing (1 + log 0 would be −∞).
    if (freqs[i] == 0) continue;
    const double tf = 1.0 + std::log(static_cast<double>(freqs[i]));
    score += tf * context.term_factors[i];
  }
  return doc_length > 0.0 ? score / std::sqrt(doc_length) : score;
}

std::unique_ptr<ScoringFunction> MakeDefaultScorer() {
  return std::make_unique<Bm25Scorer>();
}

}  // namespace asup
