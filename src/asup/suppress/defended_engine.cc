#include "asup/suppress/defended_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/suppress/processors.h"
#include "asup/util/check.h"

namespace asup {

DefendedEngine::DefendedEngine(MatchingEngine& base,
                               const AsSimpleConfig& config,
                               bool cache_answers,
                               std::unique_ptr<QueryHistory> history)
    : base_(&base),
      config_(config),
      cache_answers_(cache_answers),
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

void DefendedEngine::AddSimpleStages() {
  chain_.Add(std::make_unique<AsSimpleGuardProcessor>())
      .Add(std::make_unique<AsSimpleHideProcessor>(returned_))
      .Add(std::make_unique<AsSimpleTrimProcessor>(returned_))
      .Add(std::make_unique<EmulatedStatusProcessor>());
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
    prefetch.has_match_ids = true;
  }
  return prefetch;
}

bool DefendedEngine::HasCachedAnswer(const KeywordQuery& query) const {
  return cache_answers_ && answer_cache_.Contains(query.canonical());
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
  queries_processed_.fetch_add(1, std::memory_order_relaxed);
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
  if (cache_answers_) {
    SearchResult cached;
    if (answer_cache_.LookupOrClaim(query.canonical(), &cached) ==
        AnswerCache::Claim::kHit) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      ASUP_EVENT_EMIT(kCacheHit, query.client_id(), query.hash(),
                      cached.docs.size(), 0);
      return cached;
    }
  }

  // A prefetch computed against a different epoch is stale: its M(q) and
  // match ids reflect the wrong index. Without a usable prefetch the miss
  // runs the batch match phase live on the pinned epoch, so the chain
  // always starts from one M(q) walk (match ids stay lazy, for a trigger
  // that passes the prescreen).
  const bool prefetch_usable =
      prefetch != nullptr &&
      (prefetch->snapshot == nullptr ||
       prefetch->snapshot->epoch() == snapshot_->epoch());
  QueryPrefetch live;
  QueryContext context;
  context.query = &query;
  context.base = base_;
  context.snapshot = snapshot_.get();
  context.k = base_->k();
  context.match_limit = m_limit_;
  context.segment = &segment_;
  SearchResult result;
  // Everything after the claim runs under the try: a throwing walk or
  // stage must abandon the claim, or every later Search of this query
  // would wait on it forever.
  try {
    if (!prefetch_usable) {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      live = MatchPhase(snapshot_, query);
      prefetch = &live;
    }
    context.prefetch = prefetch;
    chain_.Run(context);
    result = std::move(context.result);
  } catch (...) {
    if (cache_answers_) answer_cache_.Abandon(query.canonical());
    throw;
  }
  if (cache_answers_) answer_cache_.Publish(query.canonical(), result);
  return result;
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
  epoch_migrations_.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_epoch_migrations_total", 1);
  ASUP_EVENT_EMIT(kEpochMigration, 0, 0, target->epoch(), dropped);
}

}  // namespace asup
