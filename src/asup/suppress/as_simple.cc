#include "asup/suppress/as_simple.h"

namespace asup {

AsSimpleEngine::AsSimpleEngine(MatchingEngine& base,
                               const AsSimpleConfig& config)
    : DefendedEngine(base, config) {}

AsSimpleStats AsSimpleEngine::stats() const {
  AsSimpleStats stats;
  stats.queries_processed =
      counters().queries_processed.load(std::memory_order_relaxed);
  stats.cache_hits = counters().cache_hits.load(std::memory_order_relaxed);
  stats.docs_hidden = returned().docs_hidden();
  stats.docs_trimmed = returned().docs_trimmed();
  stats.epoch_migrations =
      counters().epoch_migrations.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace asup
