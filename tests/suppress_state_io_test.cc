#include "asup/suppress/state_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "asup/util/hash.h"
#include "test_util.h"

namespace asup {
namespace {

using testing_util::MakeRig;
using testing_util::MakeTopicalRig;
using testing_util::Rig;

std::vector<KeywordQuery> WarmupQueries(const Rig& rig) {
  std::vector<KeywordQuery> queries;
  for (const char* w : {"sports", "game", "sports game", "team",
                        "sports team", "score", "league", "game team"}) {
    queries.push_back(rig.Q(w));
  }
  return queries;
}

bool SameAnswers(const SearchResult& a, const SearchResult& b) {
  if (a.status != b.status || a.docs.size() != b.docs.size()) return false;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].doc != b.docs[i].doc) return false;
  }
  return true;
}

TEST(StateIoTest, SimpleRoundTripRestoresAnswers) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) {
    answers.push_back(original.Search(q));
  }

  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  // A freshly restarted engine would answer differently...
  AsSimpleEngine restarted(*rig.engine, config);
  // ...until the state is restored.
  ASSERT_TRUE(LoadDefenseState(restarted, snapshot));
  EXPECT_EQ(restarted.NumActivatedDocs(), original.NumActivatedDocs());
  const auto queries = WarmupQueries(rig);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
}

// The persisted bytes are part of the state_io contract: a refactor of the
// engines must not move a single byte. The expected sizes and hashes were
// recorded from the engines as they were before they shared one
// DefendedEngine host, on these fixed rigs and logs.
TEST(StateIoTest, SnapshotBytesArePinned) {
  Rig simple_rig = MakeRig(520, 5);
  AsSimpleEngine simple(*simple_rig.engine, AsSimpleConfig{});
  for (const auto& q : WarmupQueries(simple_rig)) simple.Search(q);
  std::stringstream simple_bytes;
  ASSERT_TRUE(SaveDefenseState(simple, simple_bytes));
  EXPECT_EQ(simple_bytes.str().size(), 1212u);
  EXPECT_EQ(HashString(simple_bytes.str()), 18059363127148251573ull);

  Rig arbi_rig = MakeTopicalRig(1050, 50);
  AsArbiEngine arbi(*arbi_rig.engine, AsArbiConfig{});
  for (const char* w : {"sports game", "sports team", "sports score",
                        "sports league", "sports coach", "sports season",
                        "sports player", "sports match", "sports"}) {
    arbi.Search(arbi_rig.Q(w));
  }
  ASSERT_GT(arbi.stats().virtual_answers, 0u);
  std::stringstream arbi_bytes;
  ASSERT_TRUE(SaveDefenseState(arbi, arbi_bytes));
  EXPECT_EQ(arbi_bytes.str().size(), 6826u);
  EXPECT_EQ(HashString(arbi_bytes.str()), 13970912793548397232ull);
}

TEST(StateIoTest, SimpleLoadsLegacyV1Snapshot) {
  // Backward compatibility: a v1 snapshot is a v2 snapshot minus the
  // 8-byte corpus content fingerprint, under the 'ASS1' magic. Splicing a
  // v2 snapshot down to the v1 layout must still restore (content check
  // skipped, config fingerprint still enforced).
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine original(*rig.engine, AsSimpleConfig{});
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) {
    answers.push_back(original.Search(q));
  }
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  std::string bytes = snapshot.str();
  ASSERT_EQ(bytes.substr(0, 4), "ASS2");
  bytes[3] = '1';
  // Drop the content fingerprint: bytes [28, 36) after magic(4) +
  // corpus_size(8) + gamma(8) + key(8).
  bytes.erase(4 + 8 + 8 + 8, 8);

  std::stringstream v1(bytes);
  AsSimpleEngine restarted(*rig.engine, AsSimpleConfig{});
  ASSERT_TRUE(LoadDefenseState(restarted, v1));
  EXPECT_EQ(restarted.NumActivatedDocs(), original.NumActivatedDocs());
  const auto queries = WarmupQueries(rig);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
}

TEST(StateIoTest, RestartWithoutStateChangesAnswers) {
  // The scenario persistence exists to prevent: losing Θ_R makes a
  // restarted engine answer at least one warmed query differently.
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) {
    answers.push_back(original.Search(q));
  }
  // Replaying the *same* order from scratch would reproduce everything
  // (that is what determinism means); the hazard is a client re-issuing a
  // later query first, which the restarted engine now processes with an
  // empty Θ_R. Replay in reverse order.
  AsSimpleEngine amnesiac(*rig.engine, config);
  const auto queries = WarmupQueries(rig);
  bool any_difference = false;
  for (size_t i = queries.size(); i-- > 0;) {
    if (!SameAnswers(amnesiac.Search(queries[i]), answers[i])) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(StateIoTest, SimpleRejectsConfigMismatch) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  original.Search(rig.Q("sports"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  AsSimpleConfig other;
  other.gamma = 3.0;
  AsSimpleEngine incompatible(*rig.engine, other);
  EXPECT_FALSE(LoadDefenseState(incompatible, snapshot));
  EXPECT_EQ(incompatible.NumActivatedDocs(), 0u);  // unchanged on failure
}

TEST(StateIoTest, SimpleRejectsDifferentKey) {
  Rig rig = MakeRig(520, 5);
  AsSimpleConfig config;
  AsSimpleEngine original(*rig.engine, config);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  AsSimpleConfig rekeyed;
  rekeyed.secret_key = 0x1234;
  AsSimpleEngine incompatible(*rig.engine, rekeyed);
  EXPECT_FALSE(LoadDefenseState(incompatible, snapshot));
}

TEST(StateIoTest, SimpleRejectsGarbage) {
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  std::stringstream garbage("this is not a snapshot at all");
  EXPECT_FALSE(LoadDefenseState(engine, garbage));
}

TEST(StateIoTest, ArbiRoundTripRestoresAnswersAndHistory) {
  Rig rig = MakeTopicalRig(1050, 50);
  AsArbiConfig config;
  AsArbiEngine original(*rig.engine, config);
  std::vector<KeywordQuery> queries;
  for (const char* w : {"sports game", "sports team", "sports score",
                        "sports league", "sports coach"}) {
    queries.push_back(rig.Q(w));
  }
  std::vector<SearchResult> answers;
  for (const auto& q : queries) answers.push_back(original.Search(q));
  ASSERT_GT(original.history().NumQueries(), 0u);

  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));

  AsArbiEngine restarted(*rig.engine, config);
  ASSERT_TRUE(LoadDefenseState(restarted, snapshot));
  EXPECT_EQ(restarted.history().NumQueries(),
            original.history().NumQueries());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(restarted.Search(queries[i]), answers[i])) << i;
  }
  // The restored history keeps powering virtual query processing for new
  // covered queries.
  const uint64_t virtuals_before = restarted.stats().virtual_answers;
  restarted.Search(rig.Q("sports player"));
  restarted.Search(rig.Q("sports match"));
  EXPECT_GE(restarted.stats().virtual_answers, virtuals_before);
}

TEST(StateIoTest, ArbiRejectsSimpleSnapshot) {
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine simple(*rig.engine, AsSimpleConfig{});
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(simple, snapshot));
  AsArbiEngine arbi(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(arbi, snapshot));
}

TEST(StateIoTest, ArbiRejectsTruncatedSnapshot) {
  Rig rig = MakeTopicalRig(520, 50);
  AsArbiEngine original(*rig.engine, AsArbiConfig{});
  original.Search(rig.Q("sports game"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  AsArbiEngine restarted(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, truncated));
}

TEST(StateIoTest, SimpleFailedLoadLeavesWarmEngineUnchanged) {
  // "Unchanged on failure" must hold for an engine that already has state,
  // not just a fresh one: a deployment retries a corrupt snapshot without
  // losing the state it is running on.
  Rig rig = MakeRig(520, 5);
  AsSimpleEngine engine(*rig.engine, AsSimpleConfig{});
  std::vector<SearchResult> answers;
  for (const auto& q : WarmupQueries(rig)) answers.push_back(engine.Search(q));
  const size_t activated = engine.NumActivatedDocs();

  std::stringstream garbage("ASS1 but then nothing sensible follows here");
  EXPECT_FALSE(LoadDefenseState(engine, garbage));
  EXPECT_EQ(engine.NumActivatedDocs(), activated);
  const auto queries = WarmupQueries(rig);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers(engine.Search(queries[i]), answers[i])) << i;
  }
}

TEST(StateIoTest, ArbiTailCorruptionLeavesEngineFullyUnchanged) {
  // The AS-ARBI snapshot nests the AS-SIMPLE section first; a snapshot
  // whose *history/cache tail* is corrupt must not half-commit the inner
  // AS-SIMPLE state (the loader rolls it back).
  Rig rig = MakeTopicalRig(520, 50);
  AsArbiEngine original(*rig.engine, AsArbiConfig{});
  original.Search(rig.Q("sports game"));
  original.Search(rig.Q("sports team"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  const std::string bytes = snapshot.str();
  ASSERT_GT(original.NumActivatedDocs(), 0u);

  // Dropping the final byte corrupts the trailing cache section only; the
  // nested AS-SIMPLE section still parses cleanly.
  std::stringstream tail_corrupt(bytes.substr(0, bytes.size() - 1));
  AsArbiEngine restarted(*rig.engine, AsArbiConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, tail_corrupt));
  EXPECT_EQ(restarted.history().NumQueries(), 0u);
  EXPECT_EQ(restarted.NumActivatedDocs(), 0u);
}

TEST(StateIoTest, SimpleRejectsUnknownDocumentId) {
  // Θ_R entries are universe document ids; an id outside the corpus cannot
  // be mapped to a local bitmap slot and must be rejected, not aborted on.
  Rig rig = MakeRig(300, 5);
  AsSimpleEngine original(*rig.engine, AsSimpleConfig{});
  original.Search(rig.Q("sports"));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveDefenseState(original, snapshot));
  std::string bytes = snapshot.str();

  // v2 layout: magic(4) + corpus_size(8) + gamma(8) + key(8) +
  // content_fingerprint(8) + count(8) + first universe doc id (8 bytes,
  // little-endian). Overwrite that id with one no universe document uses.
  ASSERT_GT(original.NumActivatedDocs(), 0u);
  const size_t id_offset = 4 + 8 + 8 + 8 + 8 + 8;
  ASSERT_GE(bytes.size(), id_offset + 8);
  for (size_t i = 0; i < 8; ++i) {
    bytes[id_offset + i] = static_cast<char>(0xff);
  }
  std::stringstream corrupt(bytes);
  AsSimpleEngine restarted(*rig.engine, AsSimpleConfig{});
  EXPECT_FALSE(LoadDefenseState(restarted, corrupt));
  EXPECT_EQ(restarted.NumActivatedDocs(), 0u);
}

}  // namespace
}  // namespace asup
