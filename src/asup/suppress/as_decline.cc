#include "asup/suppress/as_decline.h"

#include <memory>

#include "asup/suppress/processors.h"

namespace asup {

AsDeclineEngine::AsDeclineEngine(MatchingEngine& base,
                                 const AsDeclineConfig& config)
    : DefendedEngine(base, config.simple, config.cache_answers,
                     std::make_unique<QueryHistory>(
                         config.cover_size, config.cover_ratio, base.k())) {
  chain_.Add(std::make_unique<MatchProcessor>())
      .Add(std::make_unique<UnderflowGuardProcessor>())
      .Add(std::make_unique<AsDeclineProcessor>(history_state(), declined_,
                                                simple_answers_));
  AddSimpleStages();
  chain_.Add(std::make_unique<HistoryRecordProcessor>(history_state()))
      .Add(std::make_unique<DefenseRecordProcessor>());
}

AsDeclineStats AsDeclineEngine::stats() const {
  AsDeclineStats stats;
  stats.queries_processed = queries_processed();
  stats.cache_hits = cache_hits();
  stats.declined = declined_.load(std::memory_order_relaxed);
  stats.simple_answers = simple_answers_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace asup
