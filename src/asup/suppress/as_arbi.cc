#include "asup/suppress/as_arbi.h"

#include <memory>

namespace asup {

AsArbiEngine::AsArbiEngine(MatchingEngine& base, const AsArbiConfig& config)
    : DefendedEngine(base, config.simple,
                     std::make_unique<QueryHistory>(
                         config.cover_size, config.cover_ratio, base.k()),
                     CoverAction::kAnswerVirtually),
      config_(config) {}

AsArbiStats AsArbiEngine::stats() const {
  AsArbiStats stats;
  stats.queries_processed =
      counters().queries_processed.load(std::memory_order_relaxed);
  stats.cache_hits = counters().cache_hits.load(std::memory_order_relaxed);
  stats.virtual_answers =
      counters().virtual_answers.load(std::memory_order_relaxed);
  stats.simple_answers =
      counters().simple_answers.load(std::memory_order_relaxed);
  stats.trigger_evaluations =
      counters().trigger_evaluations.load(std::memory_order_relaxed);
  stats.epoch_migrations =
      counters().epoch_migrations.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace asup
