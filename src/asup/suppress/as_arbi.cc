#include "asup/suppress/as_arbi.h"

#include <memory>

#include "asup/suppress/processors.h"

namespace asup {

AsArbiEngine::AsArbiEngine(MatchingEngine& base, const AsArbiConfig& config)
    : DefendedEngine(base, config.simple, config.cache_answers,
                     std::make_unique<QueryHistory>(
                         config.cover_size, config.cover_ratio, base.k())),
      config_(config) {
  chain_.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<SelSizeNoteProcessor>())
      .Add(std::make_unique<UnderflowGuardProcessor>())
      .Add(std::make_unique<AsArbiCoverProcessor>(
          history_state(), trigger_evaluations_, virtual_answers_))
      .Add(std::make_unique<AsArbiVirtualProcessor>(
          history_state(), returned(), simple_answers_));
  AddSimpleStages();
  chain_.Add(std::make_unique<HistoryRecordProcessor>(history_state()))
      .Add(std::make_unique<DefenseRecordProcessor>());
}

AsArbiStats AsArbiEngine::stats() const {
  AsArbiStats stats;
  stats.queries_processed = queries_processed();
  stats.cache_hits = cache_hits();
  stats.virtual_answers = virtual_answers_.load(std::memory_order_relaxed);
  stats.simple_answers = simple_answers_.load(std::memory_order_relaxed);
  stats.trigger_evaluations =
      trigger_evaluations_.load(std::memory_order_relaxed);
  stats.epoch_migrations = epoch_migrations();
  return stats;
}

}  // namespace asup
