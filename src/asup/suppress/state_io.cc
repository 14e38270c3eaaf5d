#include "asup/suppress/state_io.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asup/util/check.h"

namespace asup {

namespace {

// Format v2 adds the epoch content fingerprint after the config
// fingerprint; the body is unchanged. v1 snapshots still load.
constexpr char kSimpleMagicV2[4] = {'A', 'S', 'S', '2'};
constexpr char kArbiMagicV2[4] = {'A', 'S', 'A', '2'};

void PutU64(uint64_t value, std::ostream& out) {
  for (int i = 0; i < 8; ++i) out.put(static_cast<char>(value >> (8 * i)));
}

bool GetU64(std::istream& in, uint64_t& value) {
  value = 0;
  for (int i = 0; i < 8; ++i) {
    const int byte = in.get();
    if (byte == EOF) return false;
    value |= static_cast<uint64_t>(byte) << (8 * i);
  }
  return true;
}

void PutDouble(double value, std::ostream& out) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits, out);
}

bool GetDouble(std::istream& in, double& value) {
  uint64_t bits = 0;
  if (!GetU64(in, bits)) return false;
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

void PutString(const std::string& s, std::ostream& out) {
  PutU64(s.size(), out);
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool GetString(std::istream& in, std::string& s) {
  uint64_t length = 0;
  if (!GetU64(in, length) || length > (1u << 24)) return false;
  s.resize(length);
  in.read(s.data(), static_cast<std::streamsize>(length));
  return static_cast<bool>(in);
}

void PutResult(const SearchResult& result, std::ostream& out) {
  out.put(static_cast<char>(result.status));
  PutU64(result.docs.size(), out);
  for (const ScoredDoc& scored : result.docs) {
    PutU64(scored.doc, out);
    PutDouble(scored.score, out);
  }
}

bool GetResult(std::istream& in, SearchResult& result) {
  const int status = in.get();
  if (status == EOF || status > static_cast<int>(QueryStatus::kDeclined)) {
    return false;
  }
  result.status = static_cast<QueryStatus>(status);
  uint64_t count = 0;
  if (!GetU64(in, count) || count > (1u << 20)) return false;
  // The count is untrusted until the payload behind it parses: grow the
  // vector as entries validate instead of resizing to a claimed size.
  result.docs.clear();
  result.docs.reserve(std::min<uint64_t>(count, 4096));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t doc = 0;
    double score = 0.0;
    if (!GetU64(in, doc) || !GetDouble(in, score)) return false;
    result.docs.push_back({static_cast<DocId>(doc), score});
  }
  return true;
}

using CacheEntries = std::vector<std::pair<std::string, SearchResult>>;

void PutCache(const CacheEntries& entries, std::ostream& out) {
  PutU64(entries.size(), out);
  for (const auto& [canonical, result] : entries) {
    PutString(canonical, out);
    PutResult(result, out);
  }
}

// Staged in snapshot order (a vector, not a hash map: restore order is part
// of the deterministic-replay story and must match the file).
bool GetCache(std::istream& in, CacheEntries& entries) {
  uint64_t count = 0;
  if (!GetU64(in, count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    std::string canonical;
    SearchResult result;
    if (!GetString(in, canonical) || !GetResult(in, result)) return false;
    entries.emplace_back(std::move(canonical), std::move(result));
  }
  return true;
}

// Reads a 4-byte magic with prefix `kind` ('S' or 'A') and reports the
// format version, or 0 on mismatch.
int ReadVersion(std::istream& in, char kind) {
  char magic[4];
  in.read(magic, 4);
  if (!in || magic[0] != 'A' || magic[1] != 'S' || magic[2] != kind) return 0;
  if (magic[3] == '1') return 1;
  if (magic[3] == '2') return 2;
  return 0;
}

}  // namespace

// Θ_R is stored as universe document ids (stable across restarts and
// epochs); the bitmap is indexed by dense local id of the state's epoch.
void ReturnedSet::Save(const CorpusSnapshot& snapshot,
                       std::ostream& out) const {
  const std::vector<size_t> locals = bits_.SetBits();
  PutU64(locals.size(), out);
  for (size_t local : locals) {
    PutU64(snapshot.LocalToId(static_cast<uint32_t>(local)), out);
  }
}

bool ReturnedSet::Load(const CorpusSnapshot& snapshot, std::istream& in) {
  uint64_t count = 0;
  if (!GetU64(in, count) || count > snapshot.NumDocuments()) return false;
  std::vector<DocId> returned;
  returned.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t doc = 0;
    if (!GetU64(in, doc)) return false;
    if (!snapshot.Contains(static_cast<DocId>(doc))) return false;
    returned.push_back(static_cast<DocId>(doc));
  }
  bits_.ClearAll();
  for (DocId doc : returned) bits_.Set(snapshot.LocalOf(doc));
  return true;
}

// Quiesced by contract (see state_io.h): the store is read lock-free.
void QueryHistory::Save(const CorpusSnapshot& /*snapshot*/,
                        std::ostream& out) const
    ASUP_NO_THREAD_SAFETY_ANALYSIS {
  // The nested AS-SIMPLE section's answer cache: always empty, AS-ARBI
  // caches final answers itself.
  PutU64(0, out);
  PutU64(store_.NumQueries(), out);
  for (size_t i = 0; i < store_.NumQueries(); ++i) {
    const HistoryStore::HistoricQuery& entry = store_.QueryAt(i);
    PutString(entry.query.canonical(), out);
    PutU64(entry.answer.size(), out);
    for (DocId doc : entry.answer) PutU64(doc, out);
  }
}

bool QueryHistory::Load(const CorpusSnapshot& snapshot, std::istream& in) {
  uint64_t nested_cache = 0;
  if (!GetU64(in, nested_cache) || nested_cache != 0) return false;
  const Vocabulary& vocabulary = snapshot.corpus().vocabulary();
  HistoryStore history;
  uint64_t num_queries = 0;
  if (!GetU64(in, num_queries) || num_queries > (1u << 26)) return false;
  for (uint64_t i = 0; i < num_queries; ++i) {
    std::string canonical;
    if (!GetString(in, canonical)) return false;
    uint64_t answer_size = 0;
    if (!GetU64(in, answer_size) || answer_size > (1u << 20)) return false;
    std::vector<DocId> answer(answer_size);
    for (uint64_t d = 0; d < answer_size; ++d) {
      uint64_t doc = 0;
      if (!GetU64(in, doc)) return false;
      answer[d] = static_cast<DocId>(doc);
    }
    history.Record(KeywordQuery::Parse(vocabulary, canonical),
                   std::move(answer));
  }
  WriterLock lock(mutex_);
  store_ = std::move(history);
  PublishSizesLocked();
  return true;
}

// The header carries the configuration fingerprint: a snapshot only
// replays under the same corpus size, γ, and coin key. v2 appends the
// epoch *content* fingerprint — document ids, lengths and term
// frequencies, deliberately not the epoch counter, so incrementally
// maintained and freshly built engines over the same corpus interoperate
// byte-for-byte. Quiesced by contract (see state_io.h).
bool DefendedEngine::SaveState(std::ostream& out) const
    ASUP_NO_THREAD_SAFETY_ANALYSIS {
  const CorpusSnapshot& snapshot = *snapshot_;
  out.write(kSimpleMagicV2, 4);
  PutU64(segment_.corpus_size(), out);
  PutDouble(config_.gamma, out);
  PutU64(config_.secret_key, out);
  PutU64(snapshot.Fingerprint(), out);
  for (const DefenseState* state : states_) state->Save(snapshot, out);
  PutCache(answer_cache_.Snapshot(), out);
  out.flush();
  return static_cast<bool>(out);
}

// Quiesced by contract (see state_io.h).
bool DefendedEngine::LoadState(std::istream& in)
    ASUP_NO_THREAD_SAFETY_ANALYSIS {
  const int version = ReadVersion(in, 'S');
  if (version == 0) return false;
  uint64_t corpus_size = 0;
  double gamma = 0.0;
  uint64_t key = 0;
  if (!GetU64(in, corpus_size) || !GetDouble(in, gamma) || !GetU64(in, key)) {
    return false;
  }
  if (corpus_size != segment_.corpus_size() || gamma != config_.gamma ||
      key != config_.secret_key) {
    return false;
  }
  const CorpusSnapshot& snapshot = *snapshot_;
  if (version >= 2) {  // v1 snapshots carry no content fingerprint
    uint64_t content = 0;
    if (!GetU64(in, content) || content != snapshot.Fingerprint()) {
      return false;
    }
  }

  // Each section commits as it parses; a corrupt later section rolls the
  // earlier ones back from this copy, so a failed load leaves the engine
  // unchanged.
  std::stringstream backup;
  for (const DefenseState* state : states_) state->Save(snapshot, backup);
  bool parsed = true;
  for (DefenseState* state : states_) {
    parsed = state->Load(snapshot, in);
    if (!parsed) break;
  }
  CacheEntries cache;
  if (parsed) parsed = GetCache(in, cache);
  if (!parsed) {
    for (DefenseState* state : states_) {
      [[maybe_unused]] const bool restored = state->Load(snapshot, backup);
      ASUP_CHECK(restored);
    }
    return false;
  }
  answer_cache_.Clear();
  for (auto& [canonical, result] : cache) {
    answer_cache_.Insert(canonical, std::move(result));
  }
  return true;
}

bool SaveDefenseState(const AsSimpleEngine& engine, std::ostream& out) {
  return engine.SaveState(out);
}

bool LoadDefenseState(AsSimpleEngine& engine, std::istream& in) {
  return engine.LoadState(in);
}

bool SaveDefenseState(const AsArbiEngine& engine, std::ostream& out) {
  out.write(kArbiMagicV2, 4);
  return engine.SaveState(out);
}

bool LoadDefenseState(AsArbiEngine& engine, std::istream& in) {
  return ReadVersion(in, 'A') != 0 && engine.LoadState(in);
}

}  // namespace asup
