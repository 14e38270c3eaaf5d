#ifndef ASUP_SUPPRESS_PROCESSORS_H_
#define ASUP_SUPPRESS_PROCESSORS_H_

/// Suppression defenses as pipeline stages.
///
/// Each of the paper's run-time defenses is one ResultProcessor chain over
/// the shared QueryContext (see engine/pipeline/result_processor.h),
/// composed by its DefendedEngine subclass:
///
///   AS-SIMPLE   match → guard → hide → trim → emulated status → record
///   AS-ARBI     match → sel-size note → underflow guard → cover → virtual
///               → guard → hide → trim → emulated status → history → record
///   AS-DECLINE  match → underflow guard → decline → guard → hide → trim
///               → emulated status → history → record
///
/// Every chain ends in the shared DefenseRecordProcessor, which emits the
/// defense-observability events — including the segment probe, computed
/// once here via the overflow-safe IndistinguishableSegment::IndexOf
/// instead of ad-hoc log-ratio arithmetic.
///
/// A stage is constructed with the state objects (suppress/defense_state.h)
/// and counters it touches; the host fills the context's lock-guarded
/// inputs (snapshot, segment) while holding its epoch lock. The history
/// takes its own lock inside its methods.

#include <atomic>
#include <cstdint>

#include "asup/engine/pipeline/result_processor.h"
#include "asup/suppress/defense_state.h"

namespace asup {

/// Algorithm 1 preconditions: |M(q)| ≤ min(|Sel(q)|, γ·k), underflow
/// short-circuit on an empty match set, and marking every query that
/// proceeds as answered by the AS-SIMPLE stages.
class AsSimpleGuardProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "simple_guard"; }
  void Process(QueryContext& context) const override;
};

/// Algorithm 1 lines 7-13: per-document edge removal against Θ_R with the
/// keyed deterministic coin; survivors land in context.docs, all of M(q)
/// enters Θ_R.
class AsSimpleHideProcessor : public ResultProcessor {
 public:
  explicit AsSimpleHideProcessor(ReturnedSet& returned)
      : returned_(&returned) {}
  const char* name() const override { return "hide"; }
  void Process(QueryContext& context) const override;

 private:
  ReturnedSet* returned_;
};

/// Algorithm 1 line 14: trim the survivors to min(|M(q)|/μ, k).
class AsSimpleTrimProcessor : public ResultProcessor {
 public:
  explicit AsSimpleTrimProcessor(ReturnedSet& returned)
      : returned_(&returned) {}
  const char* name() const override { return "trim"; }
  void Process(QueryContext& context) const override;

 private:
  ReturnedSet* returned_;
};

/// Status in the *emulated* corpus: the defended engine behaves as if q
/// matched |Sel(q)|/μ documents, so it overflows iff |Sel(q)| > μ·k.
class EmulatedStatusProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "emulated_status"; }
  void Process(QueryContext& context) const override;
};

/// Shared terminal stage: emits the defense-observability events the
/// watchtower consumes, in a fixed order (hidden → segment probe → trimmed
/// → cover → virtual). The segment probe is the γ-segment of |Sel(q)|,
/// computed via IndistinguishableSegment::IndexOf — the same overflow-safe
/// multiply loop as the segment constructor, never trunc(log n / log γ).
class DefenseRecordProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;
};

/// Notes |Sel(q)| on the active trace (AS-ARBI's pre-trigger note).
class SelSizeNoteProcessor : public ResultProcessor {
 public:
  const char* name() const override { return "sel_size_note"; }
  void Process(QueryContext& context) const override;
};

/// Algorithm 2's cover trigger: size-plausibility check, lock-free
/// prescreen, match-id resolution, and the cover search under the history
/// lock. On success the covering answers' document pool is extracted into
/// the context for the virtual stage.
class AsArbiCoverProcessor : public ResultProcessor {
 public:
  AsArbiCoverProcessor(const QueryHistory& history,
                       std::atomic<uint64_t>& trigger_evaluations,
                       std::atomic<uint64_t>& virtual_answers)
      : history_(&history),
        trigger_evaluations_(&trigger_evaluations),
        virtual_answers_(&virtual_answers) {}
  const char* name() const override { return "cover"; }
  void Process(QueryContext& context) const override;

 private:
  const QueryHistory* history_;
  std::atomic<uint64_t>* trigger_evaluations_;
  std::atomic<uint64_t>* virtual_answers_;
};

/// Virtual query processing: q ∩ (Res(q1) ∪ ... ∪ Res(qu)), ranked by the
/// base engine and capped at k, with the same emulated-overflow status as
/// AS-SIMPLE. An uncovered query falls through to the AS-SIMPLE stages.
class AsArbiVirtualProcessor : public ResultProcessor {
 public:
  AsArbiVirtualProcessor(const QueryHistory& history,
                         const ReturnedSet& returned,
                         std::atomic<uint64_t>& simple_answers)
      : history_(&history),
        returned_(&returned),
        simple_answers_(&simple_answers) {}
  const char* name() const override { return "virtual"; }
  void Process(QueryContext& context) const override;

 private:
  const QueryHistory* history_;
  const ReturnedSet* returned_;
  std::atomic<uint64_t>* simple_answers_;
};

/// AS-DECLINE's trigger: the same cover evaluation as AS-ARBI, but a
/// covered query is refused outright (kDeclined); an uncovered one falls
/// through to the AS-SIMPLE stages.
class AsDeclineProcessor : public ResultProcessor {
 public:
  AsDeclineProcessor(const QueryHistory& history,
                     std::atomic<uint64_t>& declined,
                     std::atomic<uint64_t>& simple_answers)
      : history_(&history),
        declined_(&declined),
        simple_answers_(&simple_answers) {}
  const char* name() const override { return "decline"; }
  void Process(QueryContext& context) const override;

 private:
  const QueryHistory* history_;
  std::atomic<uint64_t>* declined_;
  std::atomic<uint64_t>* simple_answers_;
};

/// Records a non-empty AS-SIMPLE answer into the history.
class HistoryRecordProcessor : public ResultProcessor {
 public:
  explicit HistoryRecordProcessor(QueryHistory& history)
      : history_(&history) {}
  const char* name() const override { return "history_record"; }
  bool RunsWhenFinished() const override { return true; }
  void Process(QueryContext& context) const override;

 private:
  QueryHistory* history_;
};

}  // namespace asup

#endif  // ASUP_SUPPRESS_PROCESSORS_H_
