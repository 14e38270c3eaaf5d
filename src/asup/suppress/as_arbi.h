#ifndef ASUP_SUPPRESS_AS_ARBI_H_
#define ASUP_SUPPRESS_AS_ARBI_H_

#include <cstdint>

#include "asup/engine/search_engine.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/defended_engine.h"
#include "asup/suppress/history_store.h"

namespace asup {

/// Configuration of AS-ARBI (paper Algorithm 2).
struct AsArbiConfig {
  /// Parameters of the AS-SIMPLE stages; `simple.cache_answers` governs
  /// the one answer cache.
  AsSimpleConfig simple;

  /// Cover size m: maximum number of historic answers that may virtually
  /// answer a new query. The paper's default is 5 (and reports little
  /// sensitivity in 1..10).
  size_t cover_size = 5;

  /// Cover ratio σ in (0, 1]: fraction of the new query's matches that must
  /// be covered. The paper's default is 1.0 (the most conservative value).
  double cover_ratio = 1.0;
};

/// Counters exposed for tests and experiments.
struct AsArbiStats {
  uint64_t queries_processed = 0;
  uint64_t cache_hits = 0;
  /// Queries answered by virtual query processing.
  uint64_t virtual_answers = 0;
  /// Queries passed through to the AS-SIMPLE stages.
  uint64_t simple_answers = 0;
  /// Queries for which the (cheap) trigger evaluation ran.
  uint64_t trigger_evaluations = 0;
  /// Epoch migrations performed (history compacted, Θ_R remapped).
  uint64_t epoch_migrations = 0;
};

/// AS-ARBI: AS-SIMPLE plus *virtual query processing*, which defeats the
/// correlated-query attack of Section 5.1.
///
/// On each query q: if at most m historic answers cover a σ fraction of
/// Sel(q), the engine answers q purely from those historic answers
/// (q ∩ (Res(q1) ∪ ... ∪ Res(qm)), top-k filtered). Since everything in a
/// virtual answer was already disclosed, the adversary learns nothing new —
/// in particular it cannot observe the LHS-degree decay that AS-SIMPLE's
/// edge removal would otherwise reveal under highly correlated queries.
/// Queries that are not covered run the AS-SIMPLE stages on the same Θ_R
/// and are recorded in the history.
///
/// Thread safety and epochs come from the DefendedEngine host: the history
/// (suppress/defense_state.h) sits behind its own reader-writer lock,
/// always taken after the epoch lock, and two lock-free prescreens let
/// queries that cannot possibly be covered skip it. Migration compacts the
/// history — deleted documents drop out of every recorded answer, and
/// answers left empty are removed.
class AsArbiEngine : public DefendedEngine {
 public:
  /// Wraps `base` (borrowed; must outlive this engine). Pins the base's
  /// current epoch.
  AsArbiEngine(MatchingEngine& base, const AsArbiConfig& config);

  const AsArbiConfig& config() const { return config_; }

  /// Quiesced accessor for tests and experiments.
  const HistoryStore& history() const { return history_state().store(); }

  /// Snapshot of the processing counters (consistent only when quiesced).
  AsArbiStats stats() const;

 private:
  AsArbiConfig config_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_AS_ARBI_H_
