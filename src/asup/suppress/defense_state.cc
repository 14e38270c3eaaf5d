#include "asup/suppress/defense_state.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "asup/obs/metrics.h"
#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

size_t ReturnedSet::Migrate(const CorpusSnapshot& from,
                            const CorpusSnapshot& to) {
  // Dense local ids are epoch-specific, so every activated bit is carried
  // over by universe DocId. Documents deleted by the delta drop out of Θ_R:
  // they can never be returned again, and keeping them would skew
  // |Θ_R|-based accounting.
  AtomicBitmap migrated(to.NumDocuments());
  size_t dropped = 0;
  for (size_t local : bits_.SetBits()) {
    const DocId id = from.LocalToId(static_cast<uint32_t>(local));
    if (to.Contains(id)) {
      migrated.Set(to.LocalOf(id));
    } else {
      ++dropped;
    }
  }
  bits_ = std::move(migrated);
  ASUP_TRACE_NOTE("epoch_thetar_dropped", dropped);
  return dropped;
}

QueryHistory::QueryHistory(size_t cover_size, double cover_ratio, size_t k)
    : cover_size_(cover_size),
      cover_ratio_(cover_ratio),
      k_(k),
      finder_(store_, cover_size, cover_ratio) {
  // Algorithm 2's trigger parameters: cover size m ≥ 1 historic answers,
  // cover ratio σ ∈ (0, 1].
  ASUP_CHECK(cover_size >= 1);
  ASUP_CHECK(cover_ratio > 0.0);
  ASUP_CHECK_LE(cover_ratio, 1.0);
}

bool QueryHistory::TriggerPlausible(size_t match_count) const {
  // The cover trigger is only satisfiable when m historic answers (of at
  // most k documents each) can reach σ·|q| documents, so the expensive
  // evaluation is skipped for broad queries — this is why most real
  // (overflowing) queries pay almost nothing for AS-ARBI (Figure 15).
  return cover_ratio_ * static_cast<double>(match_count) <=
         static_cast<double>(cover_size_ * k_);
}

bool QueryHistory::MayCover(size_t match_count) const {
  const size_t need = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(cover_ratio_ * static_cast<double>(match_count))));
  return queries_.load(std::memory_order_acquire) != 0 &&
         docs_seen_.load(std::memory_order_acquire) >= need;
}

CoverResult QueryHistory::FindCover(const std::vector<DocId>& match_ids,
                                    std::vector<DocId>* pool) const {
  ReaderLock lock(mutex_);
  CoverResult cover = finder_.Find(match_ids);
  if (!cover.found) return cover;
  // Algorithm 2's cover contract: at most m historic answers...
  ASUP_CHECK(!cover.query_indices.empty());
  ASUP_CHECK_LE(cover.query_indices.size(), cover_size_);
  if (pool == nullptr) return cover;
  // Union of the covering answers, read under the same shared lock the
  // search ran under.
  for (uint32_t qi : cover.query_indices) {
    ASUP_CHECK_LT(qi, store_.NumQueries());
    const std::vector<DocId>& answer = store_.QueryAt(qi).answer;
    pool->insert(pool->end(), answer.begin(), answer.end());
  }
  std::sort(pool->begin(), pool->end());
  pool->erase(std::unique(pool->begin(), pool->end()), pool->end());
  return cover;
}

void QueryHistory::Record(const KeywordQuery& query,
                          std::vector<DocId> answer) {
  WriterLock lock(mutex_);
  ASUP_CONTRACTS_ONLY(const size_t queries_before = store_.NumQueries();
                      const size_t docs_before = store_.NumDocumentsSeen();)
  store_.Record(query, std::move(answer));
  // Within one epoch the history only ever grows — answers, once
  // disclosed, cannot be retracted; the lock-free prescreen relies on the
  // mirrors being monotone lower bounds of the store. (Epoch compaction
  // may shrink both, but only with every prescreen reader quiesced behind
  // the exclusive epoch lock.)
  ASUP_CONTRACTS_ONLY(ASUP_CHECK_EQ(store_.NumQueries(), queries_before + 1);
                      ASUP_CHECK(store_.NumDocumentsSeen() >= docs_before);)
  PublishSizesLocked();
}

size_t QueryHistory::Migrate(const CorpusSnapshot& /*from*/,
                             const CorpusSnapshot& to) {
  WriterLock lock(mutex_);
  // Rebuild the store keeping the original record order, so surviving
  // entries keep their relative indices and the cover search's tie-breaks
  // stay deterministic. Deleted documents can never be matched (they left
  // the index) nor disclosed again, so dropping them loses nothing; an
  // answer with no surviving document can no longer cover anything and is
  // removed outright.
  HistoryStore compacted;
  size_t dropped = 0;
  for (size_t i = 0; i < store_.NumQueries(); ++i) {
    const HistoryStore::HistoricQuery& entry = store_.QueryAt(i);
    std::vector<DocId> survivors;
    survivors.reserve(entry.answer.size());
    for (DocId doc : entry.answer) {
      if (to.Contains(doc)) survivors.push_back(doc);
    }
    if (survivors.empty()) {
      ++dropped;
      continue;
    }
    compacted.Record(entry.query, std::move(survivors));
  }
  store_ = std::move(compacted);
  // The mirrors may shrink here — that is safe because the exclusive epoch
  // lock has quiesced every prescreen reader.
  PublishSizesLocked();
  ASUP_TRACE_NOTE("epoch_history_dropped", dropped);
  return dropped;
}

void QueryHistory::PublishSizesLocked() {
  docs_seen_.store(store_.NumDocumentsSeen(), std::memory_order_release);
  queries_.store(store_.NumQueries(), std::memory_order_release);
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_queries", store_.NumQueries());
  ASUP_METRIC_GAUGE_SET("asup_suppress_history_docs_seen",
                        store_.NumDocumentsSeen());
}

}  // namespace asup
