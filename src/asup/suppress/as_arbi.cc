#include "asup/suppress/as_arbi.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "asup/obs/event_log.h"
#include "asup/obs/trace.h"
#include "asup/suppress/processors.h"
#include "asup/util/check.h"

namespace asup {

namespace {

AsSimpleConfig InnerSimpleConfig(const AsArbiConfig& config) {
  AsSimpleConfig inner = config.simple;
  // AS-ARBI caches final answers itself; a second cache inside AS-SIMPLE
  // would never be hit (it only sees AS-ARBI cache misses) and would double
  // the memory footprint.
  inner.cache_answers = false;
  return inner;
}

}  // namespace

AsArbiEngine::AsArbiEngine(MatchingEngine& base, const AsArbiConfig& config)
    : base_(&base),
      config_(config),
      snapshot_(base.PinSnapshot()),
      // The inner engine pins *our* snapshot, not a fresh one: base_ may
      // publish a new epoch between the two pins, and the two engines must
      // never disagree about the corpus.
      simple_(base, InnerSimpleConfig(config), snapshot_),
      finder_(history_, config.cover_size, config.cover_ratio) {
  // Algorithm 2's trigger parameters: cover size m ≥ 1 historic answers,
  // cover ratio σ ∈ (0, 1].
  ASUP_CHECK(config.cover_size >= 1);
  ASUP_CHECK(config.cover_ratio > 0.0);
  ASUP_CHECK_LE(config.cover_ratio, 1.0);
  chain_.Add(std::make_unique<MatchCountProcessor>())
      .Add(std::make_unique<SelSizeNoteProcessor>())
      .Add(std::make_unique<UnderflowGuardProcessor>())
      .Add(std::make_unique<AsArbiCoverProcessor>(*this))
      .Add(std::make_unique<AsArbiVirtualProcessor>(*this))
      .Add(std::make_unique<AsArbiFallthroughProcessor>(*this))
      .Add(std::make_unique<AsArbiHistoryProcessor>(*this))
      .Add(std::make_unique<DefenseRecordProcessor>());
}

AsArbiStats AsArbiEngine::stats() const {
  AsArbiStats snapshot;
  snapshot.queries_processed =
      stats_.queries_processed.load(std::memory_order_relaxed);
  snapshot.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  snapshot.virtual_answers =
      stats_.virtual_answers.load(std::memory_order_relaxed);
  snapshot.simple_answers =
      stats_.simple_answers.load(std::memory_order_relaxed);
  snapshot.trigger_evaluations =
      stats_.trigger_evaluations.load(std::memory_order_relaxed);
  snapshot.epoch_migrations =
      stats_.epoch_migrations.load(std::memory_order_relaxed);
  return snapshot;
}

uint64_t AsArbiEngine::StateEpoch() const {
  ReaderLock lock(epoch_mutex_);
  return snapshot_->epoch();
}

void AsArbiEngine::MigrateToCurrentEpoch() {
  MigrateTo(base_->PinSnapshot());
}

bool AsArbiEngine::TriggerPlausible(size_t match_count) const {
  // The cover trigger is only satisfiable when m historic answers (of at
  // most k documents each) can reach σ·|q| documents, so the expensive
  // evaluation is skipped for broad queries — this is why most real
  // (overflowing) queries pay almost nothing for AS-ARBI (Figure 15).
  const double max_coverable =
      static_cast<double>(config_.cover_size * base_->k());
  return config_.cover_ratio * static_cast<double>(match_count) <=
         max_coverable;
}

QueryPrefetch AsArbiEngine::PrefetchMatches(const KeywordQuery& query) const {
  QueryPrefetch prefetch = simple_.PrefetchMatches(query);
  if (prefetch.ranked.total_matches > 0 &&
      TriggerPlausible(prefetch.ranked.total_matches)) {
    // Same snapshot as the ranked matches — a prefetch is one epoch's view.
    prefetch.match_ids = base_->MatchIdsIn(*prefetch.snapshot, query);
    prefetch.has_match_ids = true;
  }
  return prefetch;
}

bool AsArbiEngine::HasCachedAnswer(const KeywordQuery& query) const {
  return config_.cache_answers && answer_cache_.Contains(query.canonical());
}

SearchResult AsArbiEngine::Search(const KeywordQuery& query) {
  return SearchImpl(query, nullptr);
}

SearchResult AsArbiEngine::SearchPrefetched(const KeywordQuery& query,
                                            const QueryPrefetch& prefetch) {
  return SearchImpl(query, &prefetch);
}

SearchResult AsArbiEngine::SearchImpl(const KeywordQuery& query,
                                      const QueryPrefetch* prefetch) {
  stats_.queries_processed.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      ReaderLock lock(epoch_mutex_);
      if (snapshot_->epoch() == base_->CurrentEpoch()) {
        return SearchStateLocked(query, prefetch);
      }
    }
    // The corpus moved ahead of the state: migrate, then re-check.
    MigrateTo(base_->PinSnapshot());
  }
}

SearchResult AsArbiEngine::SearchStateLocked(const KeywordQuery& query,
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

  // A prefetch computed against a different epoch is stale — its M(q) and
  // match ids reflect the wrong index. Without a usable prefetch the miss
  // runs the batch match phase live on the pinned epoch: M(q) carries
  // |Sel(q)| for the trigger and is handed to the fall-through exactly as
  // a prefetch is, so one posting walk serves both (match ids stay lazy,
  // for a trigger that passes the prescreen).
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
  context.match_limit = base_->k();
  context.trace_match = true;
  context.segment = &simple_.segment();
  SearchResult result;
  // Everything after the claim runs under the try: a throwing walk must
  // abandon the claim, or every later Search of this query would wait on
  // it forever.
  try {
    if (!prefetch_usable) {
      ASUP_TRACE_STAGE(obs::Stage::kMatch);
      live = simple_.PrefetchMatchesIn(snapshot_, query);
      prefetch = &live;
    }
    context.prefetch = prefetch;
    chain_.Run(context);
    result = std::move(context.result);
  } catch (...) {
    if (config_.cache_answers) answer_cache_.Abandon(query.canonical());
    throw;
  }
  if (config_.cache_answers) answer_cache_.Publish(query.canonical(), result);
  return result;
}

void AsArbiEngine::MigrateTo(const SnapshotHandle& target) {
  WriterLock lock(epoch_mutex_);
  // Raced with another migrating query: the state may already be at (or
  // past) the epoch this caller saw.
  if (target->epoch() <= snapshot_->epoch()) return;
  ASUP_TRACE_STAGE(obs::Stage::kEpochMigrate);

  // Inner engine first: every fall-through query runs against simple_'s
  // Θ_R/μ, so those must reach the new epoch before any query does.
  simple_.MigrateTo(target);
  ASUP_CHECK_EQ(simple_.StateEpoch(), target->epoch());

  {
    WriterLock history_lock(history_mutex_);
    CompactHistoryLocked(*target);
  }

  // Per-epoch determinism: answers cached under the old history and μ must
  // not replay in the new epoch.
  answer_cache_.Clear();

  snapshot_ = target;
  stats_.epoch_migrations.fetch_add(1, std::memory_order_relaxed);
  ASUP_METRIC_COUNT("asup_suppress_epoch_migrations_total", 1);
  ASUP_EVENT_EMIT(kEpochMigration, 0, 0, target->epoch(), 0);
}

void AsArbiEngine::CompactHistoryLocked(const CorpusSnapshot& to) {
  // Rebuild the store keeping the original record order, so surviving
  // entries keep their relative indices and the cover search's tie-breaks
  // stay deterministic. Deleted documents can never be matched (they left
  // the index) nor disclosed again, so dropping them loses nothing; an
  // answer with no surviving document can no longer cover anything and is
  // removed outright.
  HistoryStore compacted;
  const size_t num_queries = history_.NumQueries();
  size_t dropped_entries = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const HistoryStore::HistoricQuery& entry = history_.QueryAt(i);
    std::vector<DocId> survivors;
    survivors.reserve(entry.answer.size());
    for (DocId doc : entry.answer) {
      if (to.Contains(doc)) survivors.push_back(doc);
    }
    if (survivors.empty()) {
      ++dropped_entries;
      continue;
    }
    compacted.Record(entry.query, std::move(survivors));
  }
  history_ = std::move(compacted);
  // The mirrors may shrink here — that is safe because the exclusive epoch
  // lock has quiesced every prescreen reader.
  history_docs_seen_.store(history_.NumDocumentsSeen(),
                           std::memory_order_release);
  history_queries_.store(history_.NumQueries(), std::memory_order_release);
  ASUP_TRACE_NOTE("epoch_history_dropped", dropped_entries);
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_queries",
                        history_.NumQueries());
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_docs_seen",
                        history_.NumDocumentsSeen());
}

}  // namespace asup
