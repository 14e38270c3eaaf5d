#ifndef ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_
#define ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/engine/search_service.h"

namespace asup {

// Suppress-layer type (suppress/segment.h); the pipeline only carries a
// pointer so the engine layer never depends on the suppression layer.
class IndistinguishableSegment;

/// Per-query state threaded through a ProcessorChain — the RediSearch
/// result_processor.c shape: one mutable context, a fixed sequence of small
/// stages, each reading what upstream stages produced and writing what
/// downstream ones consume. Engines fill the input block (under their own
/// locks, where state is lock-guarded), run their chain, and read `result`
/// back out; no processor touches engine state the engine did not expose
/// here or via an explicit processor constructor argument.
struct QueryContext {
  // --- inputs, set by the engine before Run ---
  const KeywordQuery* query = nullptr;
  MatchingEngine* base = nullptr;
  /// The epoch every match/rank call resolves against. Required.
  const CorpusSnapshot* snapshot = nullptr;
  /// The interface's result limit k.
  size_t k = 0;
  /// Cap for the match stage: k for the plain interface, γ·k for the
  /// defenses (|M(q)| = min(|Sel(q)|, γ·k)).
  size_t match_limit = 0;
  /// Precomputed M(q) (and maybe match ids) of the pinned epoch: a batch
  /// prefetch from BatchExecutor's deterministic mode, or, on a defended
  /// cache miss, M(q) computed live. Null only on the undefended interface
  /// path, whose match stage walks the postings itself.
  const QueryPrefetch* prefetch = nullptr;
  /// Segment arithmetic of the defense's pinned epoch. Read-only.
  const IndistinguishableSegment* segment = nullptr;

  // --- match-phase state ---
  /// M(q) once a match stage ran: either `prefetch`'s ranked matches or
  /// `owned_ranked` computed live.
  const RankedMatches* ranked = nullptr;
  RankedMatches owned_ranked;
  /// |Sel(q)|, set by the match stage.
  size_t match_count = 0;
  /// All matching document ids, ascending (the cover evaluation), once
  /// ResolveMatchIds ran.
  const std::vector<DocId>* match_ids = nullptr;
  std::vector<DocId> owned_match_ids;

  // --- answer state ---
  /// Working answer list between the suppression stages.
  std::vector<ScoredDoc> docs;
  SearchResult result;
  /// Set once `result` is final (underflow, decline, virtual answer, or a
  /// status stage ran): later answer-producing stages skip themselves;
  /// stages with RunsWhenFinished() still run.
  bool finished = false;

  // --- observables consumed by the recording stages ---
  uint64_t docs_hidden = 0;
  uint64_t docs_trimmed = 0;
  /// The answer comes from the AS-SIMPLE stages: the record stage emits a
  /// kSegmentProbe for it and the history stage records it.
  bool simple_path = false;
  bool cover_found = false;
  size_t cover_answers_used = 0;
  /// Union of the covering historic answers, extracted under the history
  /// lock by the cover stage so the virtual-answer stage needs no lock.
  std::vector<DocId> cover_pool;
  bool virtual_answered = false;

  /// The match ids of the query: the prefetch's when it carries them,
  /// otherwise one id walk against the pinned epoch. Sets `match_ids`.
  const std::vector<DocId>& ResolveMatchIds();
};

/// One pipeline stage. Stateless with respect to the query: all per-query
/// state lives in the QueryContext, so one processor instance may serve
/// concurrent queries (the suppression processors reach defense state that
/// is internally synchronized or takes its own lock).
class ResultProcessor {
 public:
  virtual ~ResultProcessor() = default;

  /// Stable stage label for diagnostics and benches.
  virtual const char* name() const = 0;

  /// Advances the query by one stage.
  virtual void Process(QueryContext& context) const = 0;

  /// Whether the stage still runs after `context.finished` is set
  /// (recording and aggregation stages do; answer-producing ones do not).
  virtual bool RunsWhenFinished() const { return false; }
};

/// An ordered, immutable-after-composition sequence of processors. Engines
/// compose their chain once at construction and Run it per query.
class ProcessorChain {
 public:
  ProcessorChain() = default;
  ProcessorChain(ProcessorChain&&) = default;
  ProcessorChain& operator=(ProcessorChain&&) = default;

  ProcessorChain& Add(std::unique_ptr<ResultProcessor> processor);

  /// Runs every stage in order; stages that do not RunsWhenFinished() are
  /// skipped once `context.finished` is set.
  void Run(QueryContext& context) const;

  size_t size() const { return stages_.size(); }
  const ResultProcessor& stage(size_t i) const { return *stages_[i]; }

 private:
  std::vector<std::unique_ptr<ResultProcessor>> stages_;
};

/// Match stage: ensures M(q) and |Sel(q)| are available — the prefetched
/// ranked matches when present, a live top-`match_limit` walk against the
/// pinned epoch otherwise.
class MatchProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "match"; }
  void Process(QueryContext& context) const override;
};

/// The undefended interface mapping of Section 2.1: underflow when nothing
/// matched, overflow when |Sel(q)| > k, the ranked top-k either way.
class InterfaceStatusProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "interface_status"; }
  void Process(QueryContext& context) const override;
};

/// Finalizes an empty answer when nothing matched; requires a prior match
/// stage. The history-backed chains start their stateful half with this.
class UnderflowGuardProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "underflow_guard"; }
  void Process(QueryContext& context) const override;
};

/// The undefended interface chain (match → interface status) shared by
/// every MatchingEngine::Search call.
const ProcessorChain& InterfaceProcessorChain();

}  // namespace asup

#endif  // ASUP_ENGINE_PIPELINE_RESULT_PROCESSOR_H_
