#include "asup/suppress/as_simple.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/suppress/processors.h"
#include "asup/util/check.h"

namespace asup {

AsSimpleEngine::AsSimpleEngine(MatchingEngine& base,
                               const AsSimpleConfig& config)
    : AsSimpleEngine(base, config, base.PinSnapshot()) {}

AsSimpleEngine::AsSimpleEngine(MatchingEngine& base,
                               const AsSimpleConfig& config,
                               SnapshotHandle snapshot)
    : base_(&base),
      config_(config),
      snapshot_(std::move(snapshot)),
      segment_(std::max<size_t>(snapshot_->NumDocuments(), 1), config.gamma),
      coin_(config.secret_key),
      m_limit_(static_cast<size_t>(
          std::ceil(config.gamma * static_cast<double>(base.k())))),
      returned_before_(snapshot_->NumDocuments()) {
  // γ > 1 (checked again by the segment) implies |M(q)| may exceed k, which
  // is what lets trimmed top-k documents be replaced by lower-ranked ones.
  ASUP_CHECK_LE(base.k(), m_limit_);
  chain_.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<AsSimpleGuardProcessor>(*this))
      .Add(std::make_unique<AsSimpleHideProcessor>(*this))
      .Add(std::make_unique<AsSimpleTrimProcessor>(*this))
      .Add(std::make_unique<EmulatedStatusProcessor>())
      .Add(std::make_unique<DefenseRecordProcessor>());
}

AsSimpleStats AsSimpleEngine::stats() const {
  AsSimpleStats snapshot;
  snapshot.queries_processed =
      stats_.queries_processed.load(std::memory_order_relaxed);
  snapshot.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  snapshot.docs_hidden = stats_.docs_hidden.load(std::memory_order_relaxed);
  snapshot.docs_trimmed = stats_.docs_trimmed.load(std::memory_order_relaxed);
  snapshot.epoch_migrations =
      stats_.epoch_migrations.load(std::memory_order_relaxed);
  return snapshot;
}

uint64_t AsSimpleEngine::StateEpoch() const {
  ReaderLock lock(epoch_mutex_);
  return snapshot_->epoch();
}

void AsSimpleEngine::MigrateToCurrentEpoch() {
  MigrateTo(base_->PinSnapshot());
}

size_t AsSimpleEngine::NumActivatedDocs() const {
  ReaderLock lock(epoch_mutex_);
  return returned_before_.Count();
}

bool AsSimpleEngine::IsActivated(DocId doc) const {
  ReaderLock lock(epoch_mutex_);
  if (!snapshot_->Contains(doc)) return false;
  return returned_before_.Test(snapshot_->LocalOf(doc));
}

QueryPrefetch AsSimpleEngine::PrefetchMatches(const KeywordQuery& query) const {
  return PrefetchMatchesIn(base_->PinSnapshot(), query);
}

QueryPrefetch AsSimpleEngine::PrefetchMatchesIn(
    SnapshotHandle snapshot, const KeywordQuery& query) const {
  QueryPrefetch prefetch;
  // Line 5: M(q) = the min(|q|, γ·k) highest-ranked matching documents — a
  // pure function of one epoch's immutable index, never of Θ_R. The pinned
  // snapshot rides along so the commit phase can tell whether the epoch
  // moved in between.
  prefetch.snapshot = std::move(snapshot);
  prefetch.ranked = base_->TopMatchesIn(*prefetch.snapshot, query, m_limit_);
  return prefetch;
}

bool AsSimpleEngine::HasCachedAnswer(const KeywordQuery& query) const {
  return config_.cache_answers && answer_cache_.Contains(query.canonical());
}

SearchResult AsSimpleEngine::Search(const KeywordQuery& query) {
  return SearchImpl(query, nullptr);
}

SearchResult AsSimpleEngine::SearchPrefetched(const KeywordQuery& query,
                                              const QueryPrefetch& prefetch) {
  return SearchImpl(query, &prefetch);
}

SearchResult AsSimpleEngine::SearchImpl(const KeywordQuery& query,
                                        const QueryPrefetch* prefetch) {
  stats_.queries_processed.fetch_add(1, std::memory_order_relaxed);
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

SearchResult AsSimpleEngine::SearchPinned(const KeywordQuery& query,
                                          const QueryPrefetch* prefetch,
                                          const CorpusSnapshot& target) {
  stats_.queries_processed.fetch_add(1, std::memory_order_relaxed);
  ReaderLock lock(epoch_mutex_);
  // The caller (AS-ARBI) migrates this engine in lockstep with itself
  // before driving it, so the pinned epochs must already agree.
  ASUP_CHECK_EQ(snapshot_->epoch(), target.epoch());
  return SearchStateLocked(query, prefetch);
}

SearchResult AsSimpleEngine::SearchStateLocked(const KeywordQuery& query,
                                               const QueryPrefetch* prefetch) {
  if (config_.cache_answers) {
    SearchResult cached;
    if (answer_cache_.LookupOrClaim(query.canonical(), &cached) ==
        AnswerCache::Claim::kHit) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      ASUP_EVENT_EMIT(kCacheHit, query.client_id(), query.hash(),
                      cached.docs.size(), 0);
      return cached;
    }
  }

  // A prefetch computed against a different epoch than the one this commit
  // pinned is stale: its M(q) reflects the wrong index. Discard it and
  // recompute live — correctness first, the parallel win second.
  const bool prefetch_usable =
      prefetch != nullptr &&
      (prefetch->snapshot == nullptr ||
       prefetch->snapshot->epoch() == snapshot_->epoch());

  QueryContext context;
  context.query = &query;
  context.base = base_;
  context.snapshot = snapshot_.get();
  context.k = base_->k();
  context.match_limit = m_limit_;
  context.prefetch = prefetch_usable ? prefetch : nullptr;
  context.trace_match = true;
  context.segment = &segment_;
  SearchResult result;
  try {
    chain_.Run(context);
    result = std::move(context.result);
  } catch (...) {
    if (config_.cache_answers) answer_cache_.Abandon(query.canonical());
    throw;
  }
  if (config_.cache_answers) answer_cache_.Publish(query.canonical(), result);
  return result;
}

void AsSimpleEngine::MigrateTo(const SnapshotHandle& target) {
  WriterLock lock(epoch_mutex_);
  // Raced with another migrating query: the state may already be at (or
  // past) the epoch this caller saw.
  if (target->epoch() <= snapshot_->epoch()) return;
  ASUP_TRACE_STAGE(obs::Stage::kEpochMigrate);
  MigrateStateLocked(target);
}

void AsSimpleEngine::MigrateStateLocked(const SnapshotHandle& target) {
  const CorpusSnapshot& from = *snapshot_;
  const CorpusSnapshot& to = *target;

  // Θ_R remap: dense local ids are epoch-specific, so every activated bit
  // is carried over by universe DocId. Documents deleted by the delta drop
  // out of Θ_R — they can never be returned again, and keeping them would
  // skew |Θ_R|-based accounting.
  AtomicBitmap migrated(to.NumDocuments());
  uint64_t dropped = 0;
  const size_t old_docs = from.NumDocuments();
  for (size_t local = 0; local < old_docs; ++local) {
    if (!returned_before_.Test(local)) continue;
    const DocId id = from.LocalToId(static_cast<uint32_t>(local));
    if (to.Contains(id)) {
      migrated.Set(to.LocalOf(id));
    } else {
      ++dropped;
    }
  }
  returned_before_ = std::move(migrated);

  // μ recompute: the corpus size may have crossed a segment boundary γ^i,
  // in which case the new epoch suppresses exactly like a freshly deployed
  // defense over the new corpus (paper §4: μ depends only on n and γ).
  segment_ = IndistinguishableSegment(std::max<size_t>(to.NumDocuments(), 1),
                                      config_.gamma);

  // The per-epoch determinism contract: answers computed under the old μ
  // and Θ_R indexing must not replay in the new epoch.
  answer_cache_.Clear();

  snapshot_ = target;
  stats_.epoch_migrations.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_epoch_migrations_total", 1);
  ASUP_TRACE_NOTE("epoch_thetar_dropped", dropped);
  ASUP_EVENT_EMIT(kEpochMigration, 0, 0, to.epoch(), dropped);
}

}  // namespace asup
