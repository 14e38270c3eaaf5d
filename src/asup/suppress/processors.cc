#include "asup/suppress/processors.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/suppress/segment.h"
#include "asup/util/check.h"

namespace asup {

void AsSimpleGuardProcessor::Process(QueryContext& context) const {
  const RankedMatches& ranked = *context.ranked;
  const size_t m_size = ranked.docs.size();
  // Algorithm 1 line 5: |M(q)| = min(|Sel(q)|, γ·k).
  ASUP_CHECK_LE(m_size, context.match_limit);
  ASUP_CHECK_LE(m_size, ranked.total_matches);
  if (ranked.total_matches == 0) {
    context.result.status = QueryStatus::kUnderflow;
    context.finished = true;
    return;
  }
  // Every query that reaches the suppression stages gets a segment probe
  // (the watchtower's selectivity-stratum feature) and, under a history,
  // a record of its answer.
  context.simple_path = true;
}

void AsSimpleHideProcessor::Process(QueryContext& context) const {
  const RankedMatches& ranked = *context.ranked;
  const size_t m_size = ranked.docs.size();

  // Lines 7-13: per-document edge removal. A document already in Θ_R keeps
  // its edge to this query only with probability μ/γ; the coin is a keyed
  // deterministic function of the (query, document) edge, so processing is
  // repeatable. Fresh documents are always kept and enter Θ_R — note that
  // *all* of M(q) is activated, including documents the final trim will cut
  // (exactly as in Algorithm 1, where line 14 runs after the loop). The
  // atomic test-and-set makes the fresh-or-returned decision per document
  // linearizable under concurrent queries.
  const double keep_probability = context.segment->edge_keep_probability();
  // Line 9's edge-removal coin keeps with probability μ/γ ∈ (0, 1]
  // (equivalently hides with probability 1 − μ/γ ∈ [0, 1)).
  ASUP_CHECK(keep_probability > 0.0);
  ASUP_CHECK_LE(keep_probability, 1.0);
  context.docs.reserve(m_size);
  uint64_t hidden = 0;
  uint64_t reshown = 0;
  {
    ASUP_TRACE_STAGE(obs::Stage::kHide);
    for (const ScoredDoc& scored : ranked.docs) {
      if (returned_->TestAndSet(context.snapshot->LocalOf(scored.doc))) {
        if (returned_->coin().Accept(context.query->hash(), scored.doc,
                                     keep_probability)) {
          context.docs.push_back(scored);
          ++reshown;
        } else {
          ++hidden;
        }
      } else {
        context.docs.push_back(scored);
      }
    }
  }
  if (hidden != 0) returned_->CountHidden(hidden);
  ASUP_METRIC_COUNT("asup_suppress_docs_hidden_total", hidden);
  ASUP_METRIC_COUNT("asup_suppress_docs_reshown_total", reshown);
  ASUP_TRACE_NOTE("match_count", ranked.total_matches);
  ASUP_TRACE_NOTE("docs_hidden", hidden);
  ASUP_TRACE_NOTE("docs_reshown", reshown);
  ASUP_TRACE_NOTE("mu", context.segment->mu());
  ASUP_TRACE_NOTE("gamma", context.segment->gamma());
  context.docs_hidden = hidden;
  // Θ_R monotonicity: TestAndSet only ever sets bits, so after the loop
  // every document of M(q) — kept, hidden, or about to be trimmed — is
  // activated (Algorithm 1 runs line 14 after the loop; §5.1 depends on
  // all of M(q) entering Θ_R).
  ASUP_CONTRACTS_ONLY(for (const ScoredDoc& scored : ranked.docs) {
    ASUP_DCHECK(returned_->Test(context.snapshot->LocalOf(scored.doc)));
  })
  ASUP_CHECK_EQ(context.docs.size() + hidden, m_size);
}

void AsSimpleTrimProcessor::Process(QueryContext& context) const {
  // Line 14: trim to min(|M(q)|/μ, k) lowest-rank-last documents. When the
  // query overflows, documents hidden above are implicitly replaced by
  // lower-ranked survivors of M(q).
  ASUP_TRACE_STAGE(obs::Stage::kTrim);
  const size_t m_size = context.ranked->docs.size();
  const size_t lhs_target = static_cast<size_t>(std::llround(
      static_cast<double>(m_size) * context.segment->lhs_keep_fraction()));
  // 1/μ ≤ 1, so the trim target never exceeds |M(q)|.
  ASUP_CHECK_LE(lhs_target, m_size);
  const size_t keep = std::min(lhs_target, context.k);
  if (context.docs.size() > keep) {
    const uint64_t trimmed = context.docs.size() - keep;
    returned_->CountTrimmed(trimmed);
    ASUP_METRIC_COUNT("asup_suppress_docs_trimmed_total", trimmed);
    ASUP_TRACE_NOTE("docs_trimmed", trimmed);
    context.docs_trimmed = trimmed;
    context.docs.resize(keep);
  }
  // Line 14 postcondition: the answer is capped at min(|M(q)|/μ, k).
  ASUP_CHECK_LE(context.docs.size(), keep);
  ASUP_CHECK_LE(context.docs.size(), context.k);
}

void EmulatedStatusProcessor::Process(QueryContext& context) const {
  context.result.docs = std::move(context.docs);
  // Status in the *emulated* corpus: the defended engine behaves as if q
  // matched |q|/μ documents, so it overflows iff |q| > μ·k.
  if (context.result.docs.empty()) {
    context.result.status = QueryStatus::kUnderflow;
  } else if (static_cast<double>(context.ranked->total_matches) >
             context.segment->mu() * static_cast<double>(context.k)) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  context.finished = true;
}

void DefenseRecordProcessor::Process(QueryContext& context) const {
  const KeywordQuery& query = *context.query;
  if (context.docs_hidden != 0) {
    ASUP_EVENT_EMIT(kAnswerHidden, query.client_id(), query.hash(),
                    context.docs_hidden, 0);
  }
  if (context.simple_path) {
    // The query's selectivity stratum: which γ-segment |Sel(q)| falls into.
    // Estimators that walk the answer-size strata (stratified, dynamic)
    // hop between strata far more often than bona fide traffic, which
    // clusters on the popular head — the watchtower's segment-crossing
    // feature counts those hops. Computed with the same exact multiply
    // loop as the segment itself: a log-ratio here truncates one segment
    // low at exact powers of γ and fabricates crossings.
    ASUP_EVENT_EMIT(kSegmentProbe, query.client_id(), query.hash(),
                    IndistinguishableSegment::IndexOf(
                        context.match_count, context.segment->gamma()),
                    context.match_count);
  }
  if (context.docs_trimmed != 0) {
    ASUP_EVENT_EMIT(kAnswerTrimmed, query.client_id(), query.hash(),
                    context.docs_trimmed, 0);
  }
  if (context.cover_found) {
    ASUP_EVENT_EMIT(kCoverFound, query.client_id(), query.hash(),
                    context.cover_answers_used, context.match_ids->size());
  }
  if (context.virtual_answered) {
    ASUP_EVENT_EMIT(kVirtualAnswer, query.client_id(), query.hash(),
                    context.result.docs.size(), context.cover_answers_used);
  }
}

void SelSizeNoteProcessor::Process(QueryContext& context) const {
  // |Sel(q)|; AS-SIMPLE notes its own "match_count" when we fall through.
  ASUP_TRACE_NOTE("sel_size", context.match_count);
}

void AsArbiCoverProcessor::Process(QueryContext& context) const {
  if (!history_->TriggerPlausible(context.match_count)) return;
  trigger_evaluations_->fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_arbi_trigger_evals_total", 1);
  // Lock-free pre-screen: with no recorded answer, or fewer documents ever
  // disclosed than the coverage target, no cover can exist — skip the id
  // walk and the history lock entirely.
  if (!history_->MayCover(context.match_count)) return;
  const std::vector<DocId>& match_ids = context.ResolveMatchIds();
  CoverResult cover;
  {
    ASUP_TRACE_STAGE(obs::Stage::kCover);
    cover = history_->FindCover(match_ids, &context.cover_pool);
  }
  if (!cover.found) return;
  virtual_answers_->fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_arbi_virtual_answers_total", 1);
  ASUP_TRACE_NOTE("cover_answers_used", cover.query_indices.size());
  context.cover_found = true;
  context.cover_answers_used = cover.query_indices.size();
}

void AsArbiVirtualProcessor::Process(QueryContext& context) const {
  if (!context.cover_found) {
    // Lines 6-8: fall through to the AS-SIMPLE stages, and record the
    // answer after them.
    simple_answers_->fetch_add(1, std::memory_order_relaxed);
    ASUP_METRIC_COUNT("asup_suppress_arbi_simple_answers_total", 1);
    return;
  }
  ASUP_TRACE_STAGE(obs::Stage::kVirtual);
  const std::vector<DocId>& match_ids = *context.match_ids;
  // q ∩ (Res(q1) ∪ ... ∪ Res(qu)); both inputs are ascending.
  std::vector<DocId> virtual_ids;
  std::set_intersection(match_ids.begin(), match_ids.end(),
                        context.cover_pool.begin(), context.cover_pool.end(),
                        std::back_inserter(virtual_ids));
  ASUP_TRACE_NOTE("cover_pool_docs", context.cover_pool.size());
  ASUP_TRACE_NOTE("virtual_docs", virtual_ids.size());

  // ...covering at least ⌈σ·|Sel(q)|⌉ matching documents, every one of them
  // already disclosed by an earlier answer (so the virtual answer reveals
  // no new query–document edge and no fresh degree evidence).
  ASUP_CONTRACTS_ONLY(
      const auto need = static_cast<size_t>(
          std::ceil(history_->cover_ratio() *
                    static_cast<double>(match_ids.size())));
      ASUP_CHECK(virtual_ids.size() >= need); for (DocId doc : virtual_ids) {
        ASUP_DCHECK(returned_->Test(context.snapshot->LocalOf(doc)));
      })

  if (virtual_ids.empty()) {
    context.result.status = QueryStatus::kUnderflow;
    context.finished = true;
    return;
  }
  std::vector<ScoredDoc> ranked =
      context.base->RankDocsIn(*context.snapshot, *context.query, virtual_ids);
  if (ranked.size() > context.k) ranked.resize(context.k);
  // Top-k interface bound, same as every non-virtual answer path.
  ASUP_CHECK_LE(ranked.size(), context.k);
  context.result.docs = std::move(ranked);
  // Same emulated-overflow rule as AS-SIMPLE, so the two answer paths are
  // indistinguishable to the client.
  if (static_cast<double>(match_ids.size()) >
      context.segment->mu() * static_cast<double>(context.k)) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  context.virtual_answered = true;
  context.finished = true;
}

void AsDeclineProcessor::Process(QueryContext& context) const {
  if (history_->TriggerPlausible(context.match_count) &&
      history_->MayCover(context.match_count) &&
      history_->FindCover(context.ResolveMatchIds(), nullptr).found) {
    declined_->fetch_add(1, std::memory_order_relaxed);
    context.result.status = QueryStatus::kDeclined;
    context.finished = true;
    return;
  }
  simple_answers_->fetch_add(1, std::memory_order_relaxed);
}

void HistoryRecordProcessor::Process(QueryContext& context) const {
  if (!context.simple_path || context.result.docs.empty()) return;
  ASUP_TRACE_STAGE(obs::Stage::kHistoryRecord);
  history_->Record(*context.query, context.result.DocIds());
}

}  // namespace asup
