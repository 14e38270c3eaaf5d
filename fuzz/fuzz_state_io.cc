// Fuzz oracle for defense-state persistence (suppress/state_io.h).
//
// A defense-state snapshot is the engine's memory of what it has already
// disclosed; feeding it corrupt bytes must never crash, and the documented
// contract — "the engine is unchanged on failure" — must hold for both
// engines. For accepted snapshots, Save canonicalizes (sorted cache
// entries, local-id-ordered Θ_R, re-parsed history queries), so one
// Save ∘ Load round trip must reach a bytes-stable fixed point.

#include <cstdint>
#include <sstream>
#include <string>

#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "fuzz_rig.h"
#include "fuzz_util.h"

namespace {

asup_fuzz::Rig& SharedRig() {
  static asup_fuzz::Rig* rig = new asup_fuzz::Rig();
  return *rig;
}

void CheckSimple(asup::PlainSearchEngine& base, const std::string& bytes) {
  const asup::AsSimpleConfig config;
  asup::AsSimpleEngine engine(base, config);
  std::istringstream in(bytes);
  if (!asup::LoadDefenseState(engine, in)) {
    FUZZ_ASSERT(engine.NumActivatedDocs() == 0);  // unchanged on failure
    return;
  }
  std::ostringstream save1;
  FUZZ_ASSERT(asup::SaveDefenseState(engine, save1));
  asup::AsSimpleEngine replay(base, config);
  std::istringstream in2(save1.str());
  FUZZ_ASSERT(asup::LoadDefenseState(replay, in2));
  FUZZ_ASSERT(replay.NumActivatedDocs() == engine.NumActivatedDocs());
  std::ostringstream save2;
  FUZZ_ASSERT(asup::SaveDefenseState(replay, save2));
  FUZZ_ASSERT(save2.str() == save1.str());
}

void CheckArbi(asup::PlainSearchEngine& base, const std::string& bytes) {
  const asup::AsArbiConfig config;
  asup::AsArbiEngine engine(base, config);
  std::istringstream in(bytes);
  if (!asup::LoadDefenseState(engine, in)) {
    // Unchanged on failure — including Θ_R, which the loader rolls back so
    // a corrupt history or cache section cannot half-commit.
    FUZZ_ASSERT(engine.history().NumQueries() == 0);
    FUZZ_ASSERT(engine.NumActivatedDocs() == 0);
    return;
  }
  std::ostringstream save1;
  FUZZ_ASSERT(asup::SaveDefenseState(engine, save1));
  asup::AsArbiEngine replay(base, config);
  std::istringstream in2(save1.str());
  FUZZ_ASSERT(asup::LoadDefenseState(replay, in2));
  FUZZ_ASSERT(replay.history().NumQueries() == engine.history().NumQueries());
  FUZZ_ASSERT(replay.NumActivatedDocs() == engine.NumActivatedDocs());
  std::ostringstream save2;
  FUZZ_ASSERT(asup::SaveDefenseState(replay, save2));
  FUZZ_ASSERT(save2.str() == save1.str());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  asup_fuzz::Rig& rig = SharedRig();
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  CheckSimple(rig.engine, bytes);
  CheckArbi(rig.engine, bytes);
  return 0;
}
