#include "asup/engine/pipeline/result_processor.h"

#include <utility>

#include "asup/obs/trace.h"
#include "asup/util/check.h"

namespace asup {

const std::vector<DocId>& QueryContext::ResolveMatchIds() {
  if (prefetch != nullptr && prefetch->has_match_ids) {
    match_ids = &prefetch->match_ids;
  } else {
    ASUP_TRACE_STAGE(obs::Stage::kMatch);
    owned_match_ids = base->MatchIdsIn(*snapshot, *query);
    match_ids = &owned_match_ids;
  }
  return *match_ids;
}

ProcessorChain& ProcessorChain::Add(
    std::unique_ptr<ResultProcessor> processor) {
  ASUP_CHECK(processor != nullptr);
  stages_.push_back(std::move(processor));
  return *this;
}

void ProcessorChain::Run(QueryContext& context) const {
  ASUP_CHECK(context.query != nullptr);
  ASUP_CHECK(context.base != nullptr);
  ASUP_CHECK(context.snapshot != nullptr);
  for (const auto& stage : stages_) {
    if (context.finished && !stage->RunsWhenFinished()) continue;
    stage->Process(context);
  }
}

void MatchProcessor::Process(QueryContext& context) const {
  if (context.prefetch != nullptr) {
    context.ranked = &context.prefetch->ranked;
  } else {
    context.owned_ranked = context.base->TopMatchesIn(
        *context.snapshot, *context.query, context.match_limit);
    context.ranked = &context.owned_ranked;
  }
  context.match_count = context.ranked->total_matches;
}

void InterfaceStatusProcessor::Process(QueryContext& context) const {
  ASUP_CHECK(context.ranked != nullptr);
  const RankedMatches& ranked = *context.ranked;
  if (ranked.total_matches == 0) {
    context.result.status = QueryStatus::kUnderflow;
  } else if (ranked.total_matches > context.k) {
    context.result.status = QueryStatus::kOverflow;
  } else {
    context.result.status = QueryStatus::kValid;
  }
  if (context.ranked == &context.owned_ranked) {
    context.result.docs = std::move(context.owned_ranked.docs);
  } else {
    context.result.docs = ranked.docs;
  }
  context.finished = true;
}

void UnderflowGuardProcessor::Process(QueryContext& context) const {
  ASUP_CHECK(context.ranked != nullptr);
  if (context.match_count != 0) return;
  context.result.status = QueryStatus::kUnderflow;
  context.finished = true;
}

const ProcessorChain& InterfaceProcessorChain() {
  static const ProcessorChain* chain = [] {
    auto* built = new ProcessorChain();
    built->Add(std::make_unique<MatchProcessor>())
        .Add(std::make_unique<InterfaceStatusProcessor>());
    return built;
  }();
  return *chain;
}

}  // namespace asup
