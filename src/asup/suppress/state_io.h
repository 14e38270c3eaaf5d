#ifndef ASUP_SUPPRESS_STATE_IO_H_
#define ASUP_SUPPRESS_STATE_IO_H_

#include <iosfwd>

#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"

namespace asup {

/// Defense-state persistence.
///
/// The suppression engines are stateful *by design*: Θ_R, the answer
/// caches, and AS-ARBI's history determine what future queries see. A
/// deployment that restarts with empty state would re-run the activation
/// transient — re-issued queries would get *different* answers, violating
/// the deterministic-processing requirement of Section 2.1 and handing a
/// watching adversary a before/after comparison. These helpers snapshot
/// and restore the state so the engine resumes exactly where it stopped.
///
/// The snapshot embeds γ, the corpus size, and the secret coin key; Load
/// refuses a snapshot taken under a different configuration (the coins
/// would not replay).
///
/// Format v2 additionally embeds a *content* fingerprint of the corpus
/// epoch the state was pinned to — the hash covers document ids, lengths
/// and term frequencies, never the epoch number, so a state saved from an
/// incrementally maintained engine restores into a freshly built engine
/// over the same corpus (and vice versa). Load still accepts v1 snapshots
/// (no content check beyond the corpus size). Save and Load must run
/// quiesced, with the engine's state epoch equal to the corpus the bytes
/// describe.
///
/// Layout: an AS-SIMPLE snapshot is the magic, the fingerprint, the Θ_R
/// section and the answer cache. An AS-ARBI snapshot is its own magic
/// followed by the same layout with the history section after Θ_R (the
/// history section opens with the empty answer cache of the nested
/// AS-SIMPLE snapshot format v2 defined). Each section belongs to one
/// DefenseState object (suppress/defense_state.h); the DefendedEngine host
/// writes the header and the cache around them.
///
/// Because the quiesced contract replaces locking, the host's reader and
/// writer access its guarded state without the epoch lock and are opted
/// out of the capability analysis (the attribute lives on the definitions
/// in state_io.cc).

/// Serializes the engine's Θ_R and answer cache. Returns false on I/O
/// failure. Caller must be quiesced.
bool SaveDefenseState(const AsSimpleEngine& engine, std::ostream& out);

/// Restores a snapshot written by SaveDefenseState. Returns false on
/// corruption or configuration mismatch; the engine is unchanged on
/// failure. Caller must be quiesced.
bool LoadDefenseState(AsSimpleEngine& engine, std::istream& in);

/// Serializes the AS-ARBI state: the inner AS-SIMPLE state, the query
/// history, and the answer cache. Caller must be quiesced.
bool SaveDefenseState(const AsArbiEngine& engine, std::ostream& out);

/// Restores a snapshot written by the AS-ARBI SaveDefenseState. Caller
/// must be quiesced.
bool LoadDefenseState(AsArbiEngine& engine, std::istream& in);

}  // namespace asup

#endif  // ASUP_SUPPRESS_STATE_IO_H_
