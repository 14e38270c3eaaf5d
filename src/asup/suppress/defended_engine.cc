#include "asup/suppress/defended_engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               const AsSimpleConfig& config,
                               std::unique_ptr<QueryHistory> history,
                               CoverAction on_cover)
    : base_(&base),
      config_(config),
      on_cover_(on_cover),
      m_limit_(static_cast<size_t>(
          std::ceil(config.gamma * static_cast<double>(base.k())))),
      snapshot_(base.PinSnapshot()),
      segment_(std::max<size_t>(snapshot_->NumDocuments(), 1), config.gamma),
      returned_(snapshot_->NumDocuments(), config.secret_key),
      history_(std::move(history)) {
  // γ > 1 (checked again by the segment) implies |M(q)| may exceed k, which
  // is what lets trimmed top-k documents be replaced by lower-ranked ones.
  ASUP_CHECK_LE(base.k(), m_limit_);
  states_.push_back(&returned_);
  if (history_ != nullptr) states_.push_back(history_.get());
}

uint64_t DefendedEngine::StateEpoch() const {
  ReaderLock lock(epoch_mutex_);
  return snapshot_->epoch();
}

void DefendedEngine::MigrateToCurrentEpoch() {
  MigrateTo(base_->PinSnapshot());
}

size_t DefendedEngine::NumActivatedDocs() const {
  ReaderLock lock(epoch_mutex_);
  return returned_.Count();
}

bool DefendedEngine::IsActivated(DocId doc) const {
  ReaderLock lock(epoch_mutex_);
  if (!snapshot_->Contains(doc)) return false;
  return returned_.Test(snapshot_->LocalOf(doc));
}

QueryPrefetch DefendedEngine::MatchPhase(SnapshotHandle snapshot,
                                         const KeywordQuery& query) const {
  QueryPrefetch prefetch;
  // Line 5: M(q) = the min(|q|, γ·k) highest-ranked matching documents — a
  // pure function of one epoch's immutable index, never of Θ_R. The pinned
  // snapshot rides along so the commit phase can tell whether the epoch
  // moved in between.
  prefetch.snapshot = std::move(snapshot);
  prefetch.ranked = base_->TopMatchesIn(*prefetch.snapshot, query, m_limit_);
  return prefetch;
}

QueryPrefetch DefendedEngine::PrefetchMatches(const KeywordQuery& query) const {
  QueryPrefetch prefetch = MatchPhase(base_->PinSnapshot(), query);
  if (history_ != nullptr && prefetch.ranked.total_matches > 0 &&
      history_->TriggerPlausible(prefetch.ranked.total_matches)) {
    // Same snapshot as the ranked matches — a prefetch is one epoch's view.
    prefetch.match_ids = base_->MatchIdsIn(*prefetch.snapshot, query);
  }
  return prefetch;
}

bool DefendedEngine::HasCachedAnswer(const KeywordQuery& query) const {
  return config_.cache_answers && answer_cache_.Contains(query.canonical());
}

SearchResult DefendedEngine::Search(const KeywordQuery& query) {
  return SearchImpl(query, nullptr);
}

SearchResult DefendedEngine::SearchPrefetched(const KeywordQuery& query,
                                              const QueryPrefetch& prefetch) {
  return SearchImpl(query, &prefetch);
}

SearchResult DefendedEngine::SearchImpl(const KeywordQuery& query,
                                        const QueryPrefetch* prefetch) {
  counters_.queries_processed.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      ReaderLock lock(epoch_mutex_);
      if (snapshot_->epoch() == base_->CurrentEpoch()) {
        return SearchStateLocked(query, prefetch);
      }
    }
    // The corpus moved ahead of the state: migrate, then re-check. The loop
    // terminates in practice because epochs advance only by explicit
    // CorpusManager::Apply calls, far rarer than queries.
    MigrateTo(base_->PinSnapshot());
  }
}

SearchResult DefendedEngine::SearchStateLocked(const KeywordQuery& query,
                                               const QueryPrefetch* prefetch) {
  if (config_.cache_answers) {
    SearchResult cached;
    if (answer_cache_.LookupOrClaim(query.canonical(), &cached) ==
        AnswerCache::Claim::kHit) {
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      ASUP_EVENT_EMIT(kCacheHit, query.client_id(), query.hash(),
                      cached.docs.size(), 0);
      return cached;
    }
  }

  // A prefetch computed against a different epoch is stale: its M(q) and
  // match ids reflect the wrong index. Without a usable prefetch the miss
  // runs the batch match phase live on the pinned epoch, so the answer
  // always starts from one M(q) walk (match ids stay lazy, for a trigger
  // that passes the prescreen).
  ASUP_CHECK(prefetch == nullptr || prefetch->snapshot != nullptr);
  const bool prefetch_usable =
      prefetch != nullptr && prefetch->snapshot->epoch() == snapshot_->epoch();
  QueryPrefetch live;
  SearchResult result;
  // Everything after the claim runs under the try: a throwing walk must
  // abandon the claim, or every later Search of this query would wait on
  // it forever.
  try {
    if (!prefetch_usable) {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      live = MatchPhase(snapshot_, query);
      prefetch = &live;
    }
    DefenseRecord record;
    result = Answer(query, *prefetch, record);
    EmitDefenseEvents(query, record, result);
  } catch (...) {
    if (config_.cache_answers) answer_cache_.Abandon(query.canonical());
    throw;
  }
  if (config_.cache_answers) answer_cache_.Publish(query.canonical(), result);
  return result;
}

SearchResult DefendedEngine::Answer(const KeywordQuery& query,
                                    const QueryPrefetch& prefetch,
                                    DefenseRecord& record) {
  const RankedMatches& ranked = prefetch.ranked;
  record.sel_size = ranked.total_matches;
  ASUP_TRACE_NOTE("sel_size", record.sel_size);
  // Algorithm 1 line 5: |M(q)| = min(|Sel(q)|, γ·k).
  ASUP_CHECK_LE(ranked.docs.size(), m_limit_);
  ASUP_CHECK_LE(ranked.docs.size(), ranked.total_matches);
  SearchResult result;
  if (ranked.total_matches == 0) {
    result.status = QueryStatus::kUnderflow;
    return result;
  }

  if (history_ != nullptr) {
    if (AnswerFromHistory(query, prefetch, record, result)) return result;
    // Algorithm 2 lines 6-8: an uncovered query gets the AS-SIMPLE answer,
    // recorded in the history below.
    counters_.simple_answers.fetch_add(1, std::memory_order_relaxed);
    if (on_cover_ == CoverAction::kAnswerVirtually) {
      ASUP_METRIC_COUNT("asup_suppress_arbi_simple_answers_total", 1);
    }
  }

  // Algorithm 1 lines 7-14. Every query answered here gets a segment probe
  // (the watchtower's selectivity-stratum feature) and, under a history, a
  // record of its answer.
  record.simple_path = true;
  result.docs = Hide(query, ranked, record);
  Trim(ranked.docs.size(), result.docs, record);
  result.status = EmulatedStatus(result.docs, ranked.total_matches);
  if (history_ != nullptr && !result.docs.empty()) {
    ASUP_TRACE_STAGE(obs::Stage::kHistoryRecord);
    history_->Record(query, result.DocIds());
  }
  return result;
}

bool DefendedEngine::AnswerFromHistory(const KeywordQuery& query,
                                       const QueryPrefetch& prefetch,
                                       DefenseRecord& record,
                                       SearchResult& result) {
  const bool answers_virtually = on_cover_ == CoverAction::kAnswerVirtually;
  if (!history_->TriggerPlausible(record.sel_size)) return false;
  if (answers_virtually) {
    counters_.trigger_evaluations.fetch_add(1, std::memory_order_relaxed);
    ASUP_METRIC_COUNT("asup_suppress_arbi_trigger_evals_total", 1);
  }
  // Lock-free pre-screen: with no recorded answer, or fewer documents ever
  // disclosed than the coverage target, no cover can exist — skip the id
  // walk and the history lock entirely.
  if (!history_->MayCover(record.sel_size)) return false;

  // Sel(q): the prefetch's match ids when it carries them, otherwise one
  // id walk against the pinned epoch.
  std::vector<DocId> walked_ids;
  if (!prefetch.match_ids.has_value()) {
    ASUP_TRACE_STAGE(obs::Stage::kMatch);
    walked_ids = base_->MatchIdsIn(*snapshot_, query);
  }
  const std::vector<DocId>& match_ids =
      prefetch.match_ids.has_value() ? *prefetch.match_ids : walked_ids;
  ASUP_DCHECK_EQ(match_ids.size(), record.sel_size);

  if (!answers_virtually) {
    if (!history_->FindCover(match_ids, nullptr).found) return false;
    counters_.declined.fetch_add(1, std::memory_order_relaxed);
    result.status = QueryStatus::kDeclined;
    return true;
  }
  // The union of the covering answers is extracted under the history
  // lock, so the virtual answer needs no lock.
  std::vector<DocId> pool;
  CoverResult cover;
  {
    ASUP_TRACE_STAGE(obs::Stage::kCover);
    cover = history_->FindCover(match_ids, &pool);
  }
  if (!cover.found) return false;
  counters_.virtual_answers.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_arbi_virtual_answers_total", 1);
  ASUP_TRACE_NOTE("cover_answers_used", cover.query_indices.size());
  record.cover_found = true;
  record.cover_answers = cover.query_indices.size();
  result = VirtualAnswer(query, match_ids, pool, record);
  return true;
}

SearchResult DefendedEngine::VirtualAnswer(const KeywordQuery& query,
                                           const std::vector<DocId>& match_ids,
                                           const std::vector<DocId>& pool,
                                           DefenseRecord& record) {
  ASUP_TRACE_STAGE(obs::Stage::kVirtual);
  // q ∩ (Res(q1) ∪ ... ∪ Res(qu)); both inputs are ascending.
  std::vector<DocId> virtual_ids;
  std::set_intersection(match_ids.begin(), match_ids.end(), pool.begin(),
                        pool.end(), std::back_inserter(virtual_ids));
  ASUP_TRACE_NOTE("cover_pool_docs", pool.size());
  ASUP_TRACE_NOTE("virtual_docs", virtual_ids.size());

  // ...covering at least ⌈σ·|Sel(q)|⌉ matching documents, every one of them
  // already disclosed by an earlier answer (so the virtual answer reveals
  // no new query–document edge and no fresh degree evidence).
  ASUP_CONTRACTS_ONLY(
      const auto need = static_cast<size_t>(
          std::ceil(history_->cover_ratio() *
                    static_cast<double>(match_ids.size())));
      ASUP_CHECK(virtual_ids.size() >= need); for (DocId doc : virtual_ids) {
        ASUP_DCHECK(returned_.Test(snapshot_->LocalOf(doc)));
      })

  SearchResult result;
  if (virtual_ids.empty()) {
    result.status = QueryStatus::kUnderflow;
    return result;
  }
  std::vector<ScoredDoc> ranked =
      base_->RankDocsIn(*snapshot_, query, virtual_ids);
  if (ranked.size() > k()) ranked.resize(k());
  // Top-k interface bound, same as every non-virtual answer path.
  ASUP_CHECK_LE(ranked.size(), k());
  result.docs = std::move(ranked);
  // Same emulated-overflow rule as AS-SIMPLE, so the two answer paths are
  // indistinguishable to the client.
  result.status = EmulatedStatus(result.docs, match_ids.size());
  record.virtual_answered = true;
  return result;
}

std::vector<ScoredDoc> DefendedEngine::Hide(const KeywordQuery& query,
                                            const RankedMatches& ranked,
                                            DefenseRecord& record) {
  const size_t m_size = ranked.docs.size();
  // Lines 7-13: per-document edge removal. A document already in Θ_R keeps
  // its edge to this query only with probability μ/γ; the coin is a keyed
  // deterministic function of the (query, document) edge, so processing is
  // repeatable. Fresh documents are always kept and enter Θ_R — note that
  // *all* of M(q) is activated, including documents the final trim will cut
  // (exactly as in Algorithm 1, where line 14 runs after the loop). The
  // atomic test-and-set makes the fresh-or-returned decision per document
  // linearizable under concurrent queries.
  const double keep_probability = segment_.edge_keep_probability();
  // Line 9's edge-removal coin keeps with probability μ/γ ∈ (0, 1]
  // (equivalently hides with probability 1 − μ/γ ∈ [0, 1)).
  ASUP_CHECK(keep_probability > 0.0);
  ASUP_CHECK_LE(keep_probability, 1.0);
  std::vector<ScoredDoc> docs;
  docs.reserve(m_size);
  uint64_t hidden = 0;
  uint64_t reshown = 0;
  {
    ASUP_TRACE_STAGE(obs::Stage::kHide);
    for (const ScoredDoc& scored : ranked.docs) {
      if (returned_.TestAndSet(snapshot_->LocalOf(scored.doc))) {
        if (returned_.coin().Accept(query.hash(), scored.doc,
                                    keep_probability)) {
          docs.push_back(scored);
          ++reshown;
        } else {
          ++hidden;
        }
      } else {
        docs.push_back(scored);
      }
    }
  }
  if (hidden != 0) returned_.CountHidden(hidden);
  ASUP_METRIC_COUNT("asup_suppress_docs_hidden_total", hidden);
  ASUP_METRIC_COUNT("asup_suppress_docs_reshown_total", reshown);
  ASUP_TRACE_NOTE("docs_hidden", hidden);
  ASUP_TRACE_NOTE("docs_reshown", reshown);
  ASUP_TRACE_NOTE("mu", segment_.mu());
  ASUP_TRACE_NOTE("gamma", segment_.gamma());
  record.docs_hidden = hidden;
  // Θ_R monotonicity: TestAndSet only ever sets bits, so after the loop
  // every document of M(q) — kept, hidden, or about to be trimmed — is
  // activated (Algorithm 1 runs line 14 after the loop; §5.1 depends on
  // all of M(q) entering Θ_R).
  ASUP_CONTRACTS_ONLY(for (const ScoredDoc& scored : ranked.docs) {
    ASUP_DCHECK(returned_.Test(snapshot_->LocalOf(scored.doc)));
  })
  ASUP_CHECK_EQ(docs.size() + hidden, m_size);
  return docs;
}

void DefendedEngine::Trim(size_t m_size, std::vector<ScoredDoc>& docs,
                          DefenseRecord& record) {
  // Line 14: trim to min(|M(q)|/μ, k) lowest-rank-last documents. When the
  // query overflows, documents hidden above are implicitly replaced by
  // lower-ranked survivors of M(q).
  ASUP_TRACE_STAGE(obs::Stage::kTrim);
  const size_t lhs_target = static_cast<size_t>(std::llround(
      static_cast<double>(m_size) * segment_.lhs_keep_fraction()));
  // 1/μ ≤ 1, so the trim target never exceeds |M(q)|.
  ASUP_CHECK_LE(lhs_target, m_size);
  const size_t keep = std::min(lhs_target, k());
  if (docs.size() > keep) {
    const uint64_t trimmed = docs.size() - keep;
    returned_.CountTrimmed(trimmed);
    ASUP_METRIC_COUNT("asup_suppress_docs_trimmed_total", trimmed);
    ASUP_TRACE_NOTE("docs_trimmed", trimmed);
    record.docs_trimmed = trimmed;
    docs.resize(keep);
  }
  // Line 14 postcondition: the answer is capped at min(|M(q)|/μ, k).
  ASUP_CHECK_LE(docs.size(), keep);
  ASUP_CHECK_LE(docs.size(), k());
}

QueryStatus DefendedEngine::EmulatedStatus(const std::vector<ScoredDoc>& docs,
                                           size_t sel_size) const {
  // The defended engine behaves as if q matched |Sel(q)|/μ documents, so
  // it overflows iff |Sel(q)| > μ·k.
  if (docs.empty()) return QueryStatus::kUnderflow;
  if (static_cast<double>(sel_size) >
      segment_.mu() * static_cast<double>(k())) {
    return QueryStatus::kOverflow;
  }
  return QueryStatus::kValid;
}

void DefendedEngine::EmitDefenseEvents(const KeywordQuery& query,
                                       const DefenseRecord& record,
                                       const SearchResult& result) const {
  if (record.docs_hidden != 0) {
    ASUP_EVENT_EMIT(kAnswerHidden, query.client_id(), query.hash(),
                    record.docs_hidden, 0);
  }
  if (record.simple_path) {
    // The query's selectivity stratum: which γ-segment |Sel(q)| falls into.
    // Estimators that walk the answer-size strata (stratified, dynamic)
    // hop between strata far more often than bona fide traffic, which
    // clusters on the popular head — the watchtower's segment-crossing
    // feature counts those hops. Computed with the same exact multiply
    // loop as the segment itself: a log-ratio here truncates one segment
    // low at exact powers of γ and fabricates crossings.
    ASUP_EVENT_EMIT(
        kSegmentProbe, query.client_id(), query.hash(),
        IndistinguishableSegment::IndexOf(record.sel_size, segment_.gamma()),
        record.sel_size);
  }
  if (record.docs_trimmed != 0) {
    ASUP_EVENT_EMIT(kAnswerTrimmed, query.client_id(), query.hash(),
                    record.docs_trimmed, 0);
  }
  if (record.cover_found) {
    ASUP_EVENT_EMIT(kCoverFound, query.client_id(), query.hash(),
                    record.cover_answers, record.sel_size);
  }
  if (record.virtual_answered) {
    ASUP_EVENT_EMIT(kVirtualAnswer, query.client_id(), query.hash(),
                    result.docs.size(), record.cover_answers);
  }
}

void DefendedEngine::MigrateTo(const SnapshotHandle& target) {
  WriterLock lock(epoch_mutex_);
  // Raced with another migrating query: the state may already be at (or
  // past) the epoch this caller saw.
  if (target->epoch() <= snapshot_->epoch()) return;
  ASUP_TRACE_STAGE(obs::Stage::kEpochMigrate);

  size_t dropped = 0;
  for (DefenseState* state : states_) {
    dropped += state->Migrate(*snapshot_, *target);
  }
  // μ recompute: the corpus size may have crossed a segment boundary γ^i,
  // in which case the new epoch suppresses exactly like a freshly deployed
  // defense over the new corpus (paper §4: μ depends only on n and γ).
  segment_ = IndistinguishableSegment(
      std::max<size_t>(target->NumDocuments(), 1), config_.gamma);
  // The per-epoch determinism contract: answers computed under the old μ,
  // Θ_R indexing and history must not replay in the new epoch.
  answer_cache_.Clear();

  snapshot_ = target;
  counters_.epoch_migrations.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_epoch_migrations_total", 1);
  ASUP_EVENT_EMIT(kEpochMigration, 0, 0, target->epoch(), dropped);
}

}  // namespace asup
