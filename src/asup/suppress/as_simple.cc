#include "asup/suppress/as_simple.h"

#include <memory>

#include "asup/suppress/processors.h"

namespace asup {

AsSimpleEngine::AsSimpleEngine(MatchingEngine& base,
                               const AsSimpleConfig& config)
    : DefendedEngine(base, config, config.cache_answers, nullptr) {
  chain_.Add(std::make_unique<MatchProcessor>());
  AddSimpleStages();
  chain_.Add(std::make_unique<DefenseRecordProcessor>());
}

AsSimpleStats AsSimpleEngine::stats() const {
  AsSimpleStats stats;
  stats.queries_processed = queries_processed();
  stats.cache_hits = cache_hits();
  stats.docs_hidden = returned().docs_hidden();
  stats.docs_trimmed = returned().docs_trimmed();
  stats.epoch_migrations = epoch_migrations();
  return stats;
}

}  // namespace asup
