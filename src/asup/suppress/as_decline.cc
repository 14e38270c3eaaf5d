#include "asup/suppress/as_decline.h"

#include <memory>

namespace asup {

AsDeclineEngine::AsDeclineEngine(MatchingEngine& base,
                                 const AsDeclineConfig& config)
    : DefendedEngine(base, config.simple,
                     std::make_unique<QueryHistory>(
                         config.cover_size, config.cover_ratio, base.k()),
                     CoverAction::kDecline) {}

AsDeclineStats AsDeclineEngine::stats() const {
  AsDeclineStats stats;
  stats.queries_processed =
      counters().queries_processed.load(std::memory_order_relaxed);
  stats.cache_hits = counters().cache_hits.load(std::memory_order_relaxed);
  stats.declined = counters().declined.load(std::memory_order_relaxed);
  stats.simple_answers =
      counters().simple_answers.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace asup
