#ifndef ASUP_SUPPRESS_AS_SIMPLE_H_
#define ASUP_SUPPRESS_AS_SIMPLE_H_

#include <cstdint>

#include "asup/engine/search_engine.h"
#include "asup/suppress/defended_engine.h"

namespace asup {

/// Counters exposed for tests and the overhead experiments.
struct AsSimpleStats {
  uint64_t queries_processed = 0;
  uint64_t cache_hits = 0;
  /// Documents hidden by the per-document edge removal (line 9).
  uint64_t docs_hidden = 0;
  /// Documents trimmed by the final LHS-degree cut (line 14).
  uint64_t docs_trimmed = 0;
  /// Epoch migrations performed (corpus changed under the engine).
  uint64_t epoch_migrations = 0;
};

/// AS-SIMPLE: run-time document hiding that suppresses COUNT/SUM aggregates
/// against the SIMPLE-ADV class (all published sampling estimators) while
/// barely touching the top-k answers bona fide users see.
///
/// For each query q with match set Sel(q):
///   1. M(q) = the min(|q|, γ·k) highest-ranked matching documents.
///   2. Every document of M(q) that was returned by some earlier query is
///      *hidden* with probability 1 − μ/γ (deterministic keyed coin per
///      (query, document) edge); fresh documents are kept and marked
///      returned (Θ_R).
///   3. The surviving list is trimmed to min(|M(q)|/μ, k) documents —
///      hidden/trimmed top-k documents are thereby replaced by lower-ranked
///      survivors of M(q) when the query overflows.
///
/// The chain is match → guard → hide → trim → emulated status → record;
/// caching, epochs, migration (Θ_R remapped by DocId, μ recomputed) and
/// thread safety come from the DefendedEngine host.
class AsSimpleEngine : public DefendedEngine {
 public:
  /// Wraps `base` (borrowed; must outlive this engine). Pins the base's
  /// current epoch.
  AsSimpleEngine(MatchingEngine& base, const AsSimpleConfig& config);

  const AsSimpleConfig& config() const { return simple_config(); }

  /// Snapshot of the processing counters (consistent only when quiesced).
  AsSimpleStats stats() const;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_AS_SIMPLE_H_
