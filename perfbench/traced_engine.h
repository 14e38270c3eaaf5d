// Span recording at the engine layer boundary, from outside the program.
//
// TracedEngine is a MatchingEngine decorator: the defenses are built on it
// instead of on the PlainSearchEngine it forwards to, so every call the
// suppression layer makes into the engine layer passes through one of the
// four overrides below. Those four virtuals are the only repository API the
// decorator depends on; when the engine entry points are collapsed, this
// file is the one to follow them.
#ifndef ASUP_PERFBENCH_TRACED_ENGINE_H_
#define ASUP_PERFBENCH_TRACED_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "asup/engine/search_engine.h"

namespace asup::perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span kinds. The first four are the engine layer, one per
/// MatchingEngine virtual; kSearch is the client's call into a defense
/// (SearchService::Search), the parent of the engine spans of its query.
enum class SpanKind : uint8_t { kTop, kCount, kIds, kRank, kSearch };
inline constexpr size_t kNumEngineSpans = 4;

/// One recorded span: which boundary, which query caused it (the client's
/// running query number, shared by a query's search span and its engine
/// spans), which defense served it, and when it ran.
struct SpanRecord {
  uint32_t query = 0;
  uint8_t defense = 0;
  SpanKind kind = SpanKind::kTop;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-span totals, accumulated as calls happen.
struct SpanTotals {
  uint64_t calls[kNumEngineSpans] = {};
  int64_t nanos[kNumEngineSpans] = {};
  /// Summed document frequency of the scoring terms of kTop calls.
  uint64_t top_postings = 0;

  uint64_t TotalCalls() const {
    return calls[0] + calls[1] + calls[2] + calls[3];
  }
  int64_t TotalNanos() const {
    return nanos[0] + nanos[1] + nanos[2] + nanos[3];
  }
};

/// Forwards every MatchingEngine virtual to `base` and times it. Single
/// client thread only: the totals are plain counters.
class TracedEngine final : public MatchingEngine {
 public:
  /// `base` is borrowed and must outlive the decorator, as must `spans`
  /// and `query_id`: every call is appended to `*spans`, tagged with the
  /// current `*query_id` and with `defense`.
  TracedEngine(const MatchingEngine& base, uint8_t defense,
               std::vector<SpanRecord>& spans, const uint32_t& query_id)
      : base_(&base), defense_(defense), spans_(&spans),
        query_id_(&query_id) {}

  size_t k() const override { return base_->k(); }
  SnapshotHandle PinSnapshot() const override { return base_->PinSnapshot(); }

  RankedMatches TopMatchesNodeIn(const CorpusSnapshot& snapshot,
                                 const QueryNode& node,
                                 std::span<const TermId> score_terms,
                                 size_t limit) const override {
    const int64_t start = NowNanos();
    RankedMatches out =
        base_->TopMatchesNodeIn(snapshot, node, score_terms, limit);
    Record(SpanKind::kTop, start);
    if (snapshot.has_index()) {
      for (TermId term : score_terms) {
        totals_.top_postings += snapshot.index().DocumentFrequency(term);
      }
    }
    return out;
  }

  size_t MatchCountNodeIn(const CorpusSnapshot& snapshot,
                          const QueryNode& node) const override {
    const int64_t start = NowNanos();
    const size_t out = base_->MatchCountNodeIn(snapshot, node);
    Record(SpanKind::kCount, start);
    return out;
  }

  std::vector<DocId> MatchIdsNodeIn(const CorpusSnapshot& snapshot,
                                    const QueryNode& node) const override {
    const int64_t start = NowNanos();
    std::vector<DocId> out = base_->MatchIdsNodeIn(snapshot, node);
    Record(SpanKind::kIds, start);
    return out;
  }

  std::vector<ScoredDoc> RankDocsIn(const CorpusSnapshot& snapshot,
                                    const KeywordQuery& query,
                                    std::span<const DocId> docs)
      const override {
    const int64_t start = NowNanos();
    std::vector<ScoredDoc> out = base_->RankDocsIn(snapshot, query, docs);
    Record(SpanKind::kRank, start);
    return out;
  }

  const SpanTotals& totals() const { return totals_; }

 private:
  void Record(SpanKind kind, int64_t start) const {
    const int64_t end = NowNanos();
    const auto i = static_cast<size_t>(kind);
    ++totals_.calls[i];
    totals_.nanos[i] += end - start;
    spans_->push_back({*query_id_, defense_, kind, start, end});
  }

  const MatchingEngine* base_;
  uint8_t defense_;
  std::vector<SpanRecord>* spans_;
  const uint32_t* query_id_;
  mutable SpanTotals totals_;
};

}  // namespace asup::perfbench

#endif  // ASUP_PERFBENCH_TRACED_ENGINE_H_
