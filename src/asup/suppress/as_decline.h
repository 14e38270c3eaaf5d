#ifndef ASUP_SUPPRESS_AS_DECLINE_H_
#define ASUP_SUPPRESS_AS_DECLINE_H_

#include <cstdint>

#include "asup/engine/search_engine.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/defended_engine.h"
#include "asup/suppress/history_store.h"

namespace asup {

/// Configuration of AS-DECLINE; identical knobs to AS-ARBI's trigger.
struct AsDeclineConfig {
  AsSimpleConfig simple;  // `simple.cache_answers` governs the answer cache
  size_t cover_size = 5;
  double cover_ratio = 1.0;
};

/// Counters exposed for tests and ablations.
struct AsDeclineStats {
  uint64_t queries_processed = 0;
  uint64_t cache_hits = 0;
  uint64_t declined = 0;
  uint64_t simple_answers = 0;
};

/// The *decline-based* defense of Section 5.2 — the paper's stepping stone
/// toward AS-ARBI. A query whose match set is σ-covered by at most m
/// historic answers is simply refused (status kDeclined, empty answer):
/// since the decline response is the same over every corpus in the
/// indistinguishable segment, the correlated-query adversary learns
/// nothing. The cost is recall: bona fide users issuing similar-but-
/// different queries ("sigmod 2012" / "acm sigmod 2012") get refusals
/// where AS-ARBI would answer virtually. Implemented to make that
/// comparison measurable (see bench_ablation_decline).
///
/// Epochs, history compaction, the answer cache and thread safety come
/// from the DefendedEngine host, exactly as for AS-ARBI. The state is not
/// persisted.
class AsDeclineEngine : public DefendedEngine {
 public:
  AsDeclineEngine(MatchingEngine& base, const AsDeclineConfig& config);

  /// Quiesced accessor for tests and experiments.
  const HistoryStore& history() const { return history_state().store(); }

  /// Snapshot of the processing counters (consistent only when quiesced).
  AsDeclineStats stats() const;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_AS_DECLINE_H_
