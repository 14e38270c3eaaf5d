#ifndef ASUP_OBS_EVENT_LOG_H_
#define ASUP_OBS_EVENT_LOG_H_

/// Structured defense-observability events.
///
/// Metrics aggregate globally and traces describe one opted-in query; the
/// event log sits between the two: a bounded, sharded ring of fixed-size
/// records describing *what the defense did to whom* — query issued, answer
/// hidden/trimmed, virtual answer served, cover found, cache hit, epoch
/// migration — each stamped with the issuing client's id and the query
/// hash. The watchtower (obs/suspicion.h) consumes the same stream online
/// to score clients; the log retains the recent past for export (JSONL or
/// a compact binary form) and post-hoc analysis.
///
/// Write path: `EmitEvent` stamps a global sequence number and fans out to
/// the installed `EventLog` (retention) and `Watchtower` (scoring). The
/// log appends into a small per-thread *staging* buffer guarded by a
/// thread-private mutex, and drains a full buffer into one of `kShards`
/// ring shards — so the shard mutex is touched once per
/// `kStagingCapacity` events, not per event. When a shard ring is full the
/// oldest event is overwritten and the explicit `dropped()` counter (and
/// `asup_obs_events_dropped_total`) records the loss; retention is bounded
/// by construction, never by allocation.
///
/// Engines emit through the `ASUP_EVENT_*` macros only (lint rule
/// `asup-obs-macro`); the macros cost one relaxed atomic load when no
/// sink is installed and compile out entirely under `-DASUP_METRICS=OFF`
/// together with the rest of the obs layer.

#include "asup/obs/metrics.h"

#if ASUP_METRICS_ENABLED

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "asup/util/annotated_mutex.h"

namespace asup {
namespace obs {

/// Event taxonomy. Keep EventKindName in sync.
enum class EventKind : uint8_t {
  kQueryIssued = 0,  // a = distinct term count
  kQueryTerm,        // a = term id (one event per query term)
  kAnswerServed,     // a = answer size, b = 1 iff the answer overflowed
  kAnswerHidden,     // a = documents hidden from this answer (AS-SIMPLE)
  kAnswerTrimmed,    // a = documents trimmed by the LHS-degree cut
  kSegmentProbe,     // a = µ-segment index of |Sel(q)|, b = |Sel(q)|
  kVirtualAnswer,    // a = virtual answer size, b = historic answers used
  kCoverFound,       // a = historic answers used, b = |Sel(q)|
  kCacheHit,         // answer served from the answer cache
  kEpochMigration,   // a = new epoch id, b = state entries dropped
  kSuspicionFlag,    // a = smoothed score in millis, b = window queries
};
inline constexpr size_t kNumEventKinds =
    static_cast<size_t>(EventKind::kSuspicionFlag) + 1;

const char* EventKindName(EventKind kind);

/// One fixed-size structured event. `client` is the issuing client's id (0
/// when the event is not attributable — e.g. epoch migrations), and
/// `query_hash` the canonical-form hash of the query being processed (0
/// when none). `a` / `b` are per-kind payloads, documented on EventKind.
struct Event {
  EventKind kind = EventKind::kQueryIssued;
  uint64_t client = 0;
  uint64_t query_hash = 0;
  uint64_t sequence = 0;  // global emit order, stamped by EmitEvent
  int64_t a = 0;
  int64_t b = 0;
};

/// Sharded, bounded ring of the most recent events.
class EventLog {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kStagingCapacity = 64;

  /// `capacity` is the total retention budget, split evenly across shards
  /// (rounded up to at least one event per shard).
  explicit EventLog(size_t capacity);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends `event` verbatim (EmitEvent stamps sequences; direct callers
  /// — tests, replay tools — manage their own).
  void Append(const Event& event);

  /// Drains every thread's staging buffer into the shard rings so
  /// Snapshot() observes all appends that happened-before this call.
  void Flush();

  /// Events ever appended / overwritten-to-make-room. Dropped events also
  /// bump `asup_obs_events_dropped_total`.
  uint64_t total_appended() const;
  uint64_t dropped() const;

  /// Retained events in ascending sequence order (flushes staging first).
  std::vector<Event> Snapshot() const;

  /// One JSON object per retained event, oldest first:
  /// {"seq":12,"kind":"answer_hidden","client":3,"qhash":123,"a":4,"b":0}
  void WriteJsonl(std::ostream& out) const;

  /// Compact binary export: a fixed header, then one fixed-width record
  /// per event. ReadBinary round-trips WriteBinary's output.
  void WriteBinary(std::ostream& out) const;
  static bool ReadBinary(std::istream& in, std::vector<Event>* events);

  size_t capacity() const { return capacity_; }

 private:
  struct Shard;
  struct Staging;

  Staging& StagingForThisThread() const;
  /// Appends a drained staging buffer into the calling thread's shard,
  /// overwriting (and counting) the oldest events when the ring is full.
  void DrainInto(std::vector<Event>&& spill) const;

  const size_t capacity_;        // total, across shards
  const size_t shard_capacity_;  // per shard
  const uint64_t log_id_;        // keys the thread-local staging lookup
  std::unique_ptr<Shard[]> shards_;
  mutable Mutex staging_mutex_;  // guards the staging-buffer registry
  mutable std::vector<std::unique_ptr<Staging>> stagings_
      ASUP_GUARDED_BY(staging_mutex_);
};

/// Installs the process-wide event log / watchtower `EmitEvent` fans out
/// to (nullptr to disable). Both are borrowed and must outlive their
/// installation; install before issuing queries, uninstall after
/// quiescing (not synchronized against in-flight emitters).
void InstallEventLog(EventLog* log);
EventLog* InstalledEventLog();

// Forward declaration; see obs/suspicion.h.
class Watchtower;
void InstallWatchtower(Watchtower* watchtower);
Watchtower* InstalledWatchtower();

namespace detail {
// Bit 0: event log installed; bit 1: watchtower installed. One relaxed
// load answers "is anything listening" on the macro fast path.
extern std::atomic<uint32_t> g_event_sink_mask;
}  // namespace detail

/// True when an event log or a watchtower is installed.
inline bool EventSinksInstalled() {
  return detail::g_event_sink_mask.load(std::memory_order_relaxed) != 0;
}

/// Stamps a global sequence number on `event` and fans it out to the
/// installed sinks. No-op when none is installed.
void EmitEvent(Event event);

namespace detail {
/// Emits kQueryIssued plus one kQueryTerm per element of `terms` (any
/// range of integral term ids; templated so obs stays below the text
/// layer that defines TermId).
template <typename Terms>
void EmitQueryIssued(uint64_t client, uint64_t query_hash,
                     const Terms& terms) {
  Event issued;
  issued.kind = EventKind::kQueryIssued;
  issued.client = client;
  issued.query_hash = query_hash;
  issued.a = static_cast<int64_t>(terms.size());
  EmitEvent(issued);
  for (const auto term : terms) {
    Event te;
    te.kind = EventKind::kQueryTerm;
    te.client = client;
    te.query_hash = query_hash;
    te.a = static_cast<int64_t>(term);
    EmitEvent(te);
  }
}
}  // namespace detail

}  // namespace obs
}  // namespace asup

// Event-emission macros. `kind_` is a bare EventKind enumerator name
// (kCacheHit, kAnswerHidden, ...); the value operands are evaluated only
// when a sink is installed.
#define ASUP_EVENT_EMIT(kind_, client_, qhash_, a_, b_)         \
  do {                                                          \
    if (::asup::obs::EventSinksInstalled()) {                   \
      ::asup::obs::Event asup_event_;                           \
      asup_event_.kind = ::asup::obs::EventKind::kind_;         \
      asup_event_.client = (client_);                           \
      asup_event_.query_hash = (qhash_);                        \
      asup_event_.a = static_cast<int64_t>(a_);                 \
      asup_event_.b = static_cast<int64_t>(b_);                 \
      ::asup::obs::EmitEvent(asup_event_);                      \
    }                                                           \
  } while (0)

/// Emits kQueryIssued + per-term kQueryTerm events for a query with term
/// range `terms_` (e.g. `query.terms()`).
#define ASUP_EVENT_QUERY_ISSUED(client_, qhash_, terms_)           \
  do {                                                             \
    if (::asup::obs::EventSinksInstalled()) {                      \
      ::asup::obs::detail::EmitQueryIssued((client_), (qhash_),    \
                                           (terms_));              \
    }                                                              \
  } while (0)

#else  // !ASUP_METRICS_ENABLED

// Compiled out: `kind` is dropped (the enumerator does not exist in the
// OFF build); the value operands stay type checked but are never
// evaluated — the same contract as the disabled metric macros.
#define ASUP_EVENT_EMIT(kind_, client_, qhash_, a_, b_) \
  (true ? (void)0                                       \
        : ((void)(client_), (void)(qhash_), (void)(a_), (void)(b_)))
#define ASUP_EVENT_QUERY_ISSUED(client_, qhash_, terms_) \
  (true ? (void)0 : ((void)(client_), (void)(qhash_), (void)(terms_)))

#endif  // ASUP_METRICS_ENABLED

#endif  // ASUP_OBS_EVENT_LOG_H_
