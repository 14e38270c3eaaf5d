// The three closed-loop workloads, their answer checks, and the metrics.
//
// Every workload runs in rounds. A round builds a fresh serving stack (a
// CorpusManager over a copy of the generated corpus, one PlainSearchEngine,
// one AS-SIMPLE and one AS-ARBI engine), drives it from this one thread,
// and tears it down. Rounds are identical by construction, so every count
// and every answer digest repeats exactly; only the clock differs. Round 0
// warms caches and the allocator and is left out of every timing.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "asup/attack/aggregate.h"
#include "asup/attack/estimator.h"
#include "asup/attack/query_pool.h"
#include "asup/attack/unbiased_est.h"
#include "asup/engine/parallel_service.h"
#include "asup/engine/search_engine.h"
#include "asup/index/corpus_manager.h"
#include "asup/suppress/as_arbi.h"
#include "asup/suppress/as_simple.h"
#include "asup/suppress/state_io.h"
#include "asup/text/corpus_delta.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/hash.h"
#include "asup/util/thread_pool.h"
#include "asup/workload/aol_like.h"
#include "asup/workload/epoch_stream.h"
#include "perfbench.h"
#include "traced_engine.h"

namespace asup::perfbench {
namespace {

constexpr size_t kK = 10;
/// Every kReissueStride-th query of a round's last epoch is issued again
/// after the timed queries, to check that a re-issue within one epoch gets
/// the identical answer.
constexpr size_t kReissueStride = 10;
/// Timed rounds (after the warm-up round) a run makes at least.
constexpr size_t kMinTimedRounds = 3;
/// aol_fresh and adversary end each round with this many publishes, each
/// followed by one AS-ARBI query: as many publish and migration samples per
/// round as aol_churn's five.
constexpr size_t kClosingPublishes = 5;

struct Scale {
  size_t docs;
  size_t vocabulary;
  /// AOL-like query population (and log length, repeats included).
  size_t population;
  /// aol_churn publishes after every `churn_every` queries.
  size_t churn_every;
  /// Documents added and documents removed by one churn delta.
  size_t churn_docs;
  /// Held-out documents the adversary builds its query pool from.
  size_t held_out;
  /// UNBIASED-EST's query budget per defense.
  uint64_t adversary_budget;
};

constexpr Scale kFullScale{20000, 30000, 6000, 1000, 40, 5000, 30000};
constexpr Scale kSmallScale{3000, 8000, 1200, 300, 10, 800, 3000};

enum Defense : size_t { kPlain, kSimple, kArbi, kNumDefenses };
constexpr const char* kDefenseName[kNumDefenses] = {"plain", "simple",
                                                    "arbi"};

enum class Workload { kFresh, kChurn, kAdversary };

Workload ParseWorkload(const std::string& name) {
  if (name == "aol_fresh") return Workload::kFresh;
  if (name == "aol_churn") return Workload::kChurn;
  if (name == "adversary") return Workload::kAdversary;
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

Corpus CopyCorpus(const Corpus& corpus) {
  return Corpus(corpus.vocabulary_ptr(), corpus.documents());
}

/// Linear-interpolated quantile of `sorted` (ascending), q in [0, 1].
template <typename T>
double Quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Inputs: everything a run needs, generated from --seed before any timing.

struct Inputs {
  Corpus corpus;
  /// aol_fresh: the distinct queries; aol_churn: the log, repeats included.
  std::vector<KeywordQuery> queries;
  /// Churn deltas, published in order. aol_fresh and adversary publish
  /// theirs after the timed queries.
  std::vector<CorpusDelta> deltas;
  Corpus held_out;
  std::unique_ptr<QueryPool> pool;
  uint64_t estimator_seed = 0;
};

/// The corpus, the AOL-like query population and the adversary's held-out
/// sample are fixed, as in bench_micro_engine's MicroEnv: they define the
/// workload. `seed` draws what varies from run to run of one workload: the
/// order in which the client sends the queries, the documents each publish
/// removes, and UNBIASED-EST's random choices.
Inputs MakeInputs(Workload workload, const Scale& scale, uint64_t seed) {
  Inputs in;
  SyntheticCorpusConfig corpus_config;
  corpus_config.vocabulary_size = scale.vocabulary;
  corpus_config.seed = 7;
  SyntheticCorpusGenerator generator(corpus_config);
  in.corpus = generator.Generate(scale.docs);
  Rng order(HashCombine(seed, 2));

  if (workload == Workload::kAdversary) {
    in.held_out = generator.Generate(scale.held_out);
    QueryPool::Options pool_options;
    pool_options.max_df_fraction = 0.05;
    in.pool = std::make_unique<QueryPool>(in.held_out, pool_options);
    in.estimator_seed = HashCombine(seed, 4);
  } else {
    AolLikeConfig log_config;
    log_config.log_size = scale.population;
    log_config.unique_queries = scale.population;
    const AolLikeWorkload log(in.corpus, log_config);
    if (workload == Workload::kFresh) {
      std::unordered_set<std::string> seen;
      for (const KeywordQuery& query : log.unique_queries()) {
        if (seen.insert(query.canonical()).second) in.queries.push_back(query);
      }
    } else {
      in.queries = log.log();
    }
    order.Shuffle(in.queries);
  }

  EpochStreamConfig stream_config;
  stream_config.kind = EpochStreamKind::kChurn;
  stream_config.num_epochs =
      workload == Workload::kChurn
          ? (in.queries.size() - 1) / scale.churn_every
          : kClosingPublishes;
  stream_config.docs_per_epoch = scale.churn_docs;
  stream_config.seed = HashCombine(seed, 3);
  EpochStream stream(generator, stream_config);
  Corpus current = CopyCorpus(in.corpus);
  while (!stream.exhausted()) {
    CorpusDelta delta = stream.NextDelta(current);
    current = ApplyDelta(current, delta);
    in.deltas.push_back(std::move(delta));
  }
  return in;
}

// ---------------------------------------------------------------------------
// The serving stack of one round.

struct Stack {
  std::unique_ptr<CorpusManager> manager;
  std::unique_ptr<PlainSearchEngine> engine;
  /// Traced rounds only: one engine decorator per defense.
  std::unique_ptr<TracedEngine> traced[kNumDefenses];
  std::unique_ptr<AsSimpleEngine> simple;
  std::unique_ptr<AsArbiEngine> arbi;
  SearchService* service[kNumDefenses] = {};
};

/// Per defense, per round.
struct DefenseRound {
  std::vector<int64_t> latencies;  // timed queries, ns
  uint64_t timed = 0;
  // Filled from `latencies` when the round ends.
  double p50_us = 0.0;
  double p99_us = 0.0;
  int64_t search_ns = 0;
  uint64_t digest = 0;
  // Traced rounds only.
  uint64_t hits = 0;
  std::vector<int64_t> hit_latencies;
  uint64_t misses = 0;
  int64_t miss_self_ns = 0;
  uint64_t miss_engine_calls = 0;
  int64_t engine_ns = 0;
  SpanTotals engine;
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double index_build_ms = 0.0;
  DefenseRound defense[kNumDefenses];
  std::vector<double> publish_ms;
  std::vector<double> migrate_ms;
  std::vector<double> migrate_eager_ms;
  uint64_t apply_docs = 0;
  uint64_t publishes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Time this thread spent outside Search calls, publishes and checks
  /// while the workload ran: the client's own work.
  int64_t client_ns = 0;
  int64_t check_ns = 0;
  // Counts taken right after the timed queries.
  AsSimpleStats simple_stats;
  size_t activated_docs = 0;
  AsArbiStats arbi_stats;
  size_t history_queries = 0;
  size_t history_docs = 0;
  size_t state_bytes = 0;
  double bytes_per_posting = 0.0;
  /// UNBIASED-EST's final estimates (adversary, round 0 only).
  double estimate[kNumDefenses] = {};
};

std::unique_ptr<Stack> BuildStack(const Corpus& corpus, Round& round,
                                  std::vector<SpanRecord>* spans,
                                  const uint32_t& query_id) {
  auto stack = std::make_unique<Stack>();
  Corpus copy = CopyCorpus(corpus);  // the corpus exists before set-up
  const int64_t start = NowNanos();
  stack->manager = std::make_unique<CorpusManager>(std::move(copy));
  const int64_t built = NowNanos();
  stack->engine = std::make_unique<PlainSearchEngine>(*stack->manager, kK);
  MatchingEngine* base[kNumDefenses] = {stack->engine.get(),
                                        stack->engine.get(),
                                        stack->engine.get()};
  if (spans != nullptr) {
    for (size_t d = 0; d < kNumDefenses; ++d) {
      stack->traced[d] = std::make_unique<TracedEngine>(
          *stack->engine, static_cast<uint8_t>(d), *spans, query_id);
      base[d] = stack->traced[d].get();
    }
  }
  stack->simple = std::make_unique<AsSimpleEngine>(*base[kSimple],
                                                   AsSimpleConfig());
  stack->arbi = std::make_unique<AsArbiEngine>(*base[kArbi], AsArbiConfig());
  const int64_t end = NowNanos();
  stack->service[kPlain] = base[kPlain];
  stack->service[kSimple] = stack->simple.get();
  stack->service[kArbi] = stack->arbi.get();
  round.setup_s = static_cast<double>(end - start) * 1e-9;
  round.index_build_ms = static_cast<double>(built - start) * 1e-6;
  return stack;
}

uint64_t AnswerDigest(const SearchResult& result) {
  uint64_t digest = static_cast<uint64_t>(result.status) + 1;
  for (const ScoredDoc& doc : result.docs) digest = HashCombine(digest, doc.doc);
  return digest;
}

// ---------------------------------------------------------------------------
// The client: issues one query at a time, times it, and checks the answer.

class Client {
 public:
  /// `query_id` is the running query number the stack's decorators tag
  /// their spans with; the client advances it per query.
  Client(Stack& stack, Round& round, std::vector<SpanRecord>* spans,
         uint32_t& query_id)
      : stack_(&stack), round_(&round), spans_(spans), query_id_(&query_id) {}

  /// Issues `query` to defense `d` and checks the answer. Timed queries
  /// feed the latency metrics; `*latency_out` receives it either way.
  SearchResult Issue(size_t d, const KeywordQuery& query, bool timed,
                     int64_t* latency_out = nullptr) {
    ++*query_id_;
    const bool traced = stack_->traced[d] != nullptr;
    const uint64_t hits_before = traced ? CacheHits(d) : 0;
    SpanTotals engine_before;
    if (traced) engine_before = stack_->traced[d]->totals();

    const int64_t start = NowNanos();
    SearchResult result = stack_->service[d]->Search(query);
    const int64_t end = NowNanos();
    const int64_t latency = end - start;

    DefenseRound& out = round_->defense[d];
    if (timed) {
      out.latencies.push_back(latency);
      ++out.timed;
      out.search_ns += latency;
    }
    if (traced && timed) {
      const SpanTotals& after = stack_->traced[d]->totals();
      const int64_t engine_ns = after.TotalNanos() - engine_before.TotalNanos();
      out.engine_ns += engine_ns;
      if (CacheHits(d) != hits_before) {
        ++out.hits;
        out.hit_latencies.push_back(latency);
      } else {
        ++out.misses;
        out.miss_self_ns += latency - engine_ns;
        out.miss_engine_calls += after.TotalCalls() - engine_before.TotalCalls();
      }
      spans_->push_back({*query_id_, static_cast<uint8_t>(d),
                         SpanKind::kSearch, start, end});
    }
    ++round_->attempted;
    if (!Check(d, query, result)) ++round_->failed;
    round_->check_ns += NowNanos() - end;
    if (latency_out != nullptr) *latency_out = latency;
    return result;
  }

  /// Publishes `delta` and starts a new epoch for the re-issue memo. In
  /// traced rounds AS-ARBI then migrates eagerly, timed on its own.
  void Publish(const CorpusDelta& delta) {
    const int64_t start = NowNanos();
    stack_->manager->Apply(delta);
    round_->publish_ms.push_back(static_cast<double>(NowNanos() - start) *
                                 1e-6);
    round_->apply_docs += delta.add.size() + delta.remove.size();
    ++round_->publishes;
    for (auto& memo : memo_) memo.clear();
    if (round_->traced) {
      const int64_t migrate_start = NowNanos();
      stack_->arbi->MigrateToCurrentEpoch();
      round_->migrate_eager_ms.push_back(
          static_cast<double>(NowNanos() - migrate_start) * 1e-6);
    }
  }

 private:
  uint64_t CacheHits(size_t d) const {
    if (d == kSimple) return stack_->simple->stats().cache_hits;
    if (d == kArbi) return stack_->arbi->stats().cache_hits;
    return 0;
  }

  /// The answer checks behind ok_ratio. Runs after the Search call
  /// returned and before anything is published, so the manager's current
  /// epoch is the one the answer was served from.
  bool Check(size_t d, const KeywordQuery& query, const SearchResult& result) {
    const SnapshotHandle snapshot = stack_->manager->Current();
    bool ok = result.status != QueryStatus::kDeclined &&
              result.docs.size() <= kK;
    std::vector<DocId> ids = result.DocIds();
    std::sort(ids.begin(), ids.end());
    ok = ok && std::adjacent_find(ids.begin(), ids.end()) == ids.end();
    for (DocId id : ids) {
      if (!ok) break;
      ok = snapshot->Contains(id);
      if (!ok) break;
      const Document& doc = snapshot->corpus().Get(id);
      for (TermId term : query.terms()) ok = ok && doc.Contains(term);
    }
    if (d == kPlain) {
      for (size_t i = 1; ok && i < result.docs.size(); ++i) {
        ok = RankBefore(result.docs[i - 1], result.docs[i]);
      }
    }
    const uint64_t digest = AnswerDigest(result);
    const auto [it, inserted] = memo_[d].emplace(query.hash(), digest);
    ok = ok && (inserted || it->second == digest);
    DefenseRound& out = round_->defense[d];
    out.digest = HashCombine(out.digest, HashCombine(query.hash(), digest));
    return ok;
  }

  Stack* stack_;
  Round* round_;
  std::vector<SpanRecord>* spans_;
  uint32_t* query_id_;
  /// Per defense, for the current epoch: query hash -> answer digest.
  std::unordered_map<uint64_t, uint64_t> memo_[kNumDefenses];
};

/// Adapts one defense of the client to the SearchService the estimator
/// drives, and records the stream of queries it sent.
class DefenseClient : public SearchService {
 public:
  DefenseClient(Client& client, size_t defense,
                std::vector<KeywordQuery>& stream)
      : client_(&client), defense_(defense), stream_(&stream) {}
  SearchResult Search(const KeywordQuery& query) override;
  size_t k() const override { return kK; }

 private:
  Client* client_;
  size_t defense_;
  std::vector<KeywordQuery>* stream_;
};

// ---------------------------------------------------------------------------
// Rounds.

double Qps(const DefenseRound& d) {
  return Ratio(static_cast<double>(d.timed),
               static_cast<double>(d.search_ns) * 1e-9);
}

int64_t SearchNanos(const Round& round) {
  int64_t total = 0;
  for (const DefenseRound& d : round.defense) total += d.search_ns;
  return total;
}

/// Counts and defense state, taken right after the timed queries.
void CollectCounts(const Stack& stack, Round& round) {
  round.simple_stats = stack.simple->stats();
  round.activated_docs = stack.simple->NumActivatedDocs();
  round.arbi_stats = stack.arbi->stats();
  round.history_queries = stack.arbi->history().NumQueries();
  round.history_docs = stack.arbi->history().NumDocumentsSeen();
  std::ostringstream state;
  if (!SaveDefenseState(*stack.arbi, state)) ++round.failed;
  round.state_bytes = state.str().size();
  const IndexStats& index = stack.manager->Current()->index().stats();
  round.bytes_per_posting =
      Ratio(static_cast<double>(index.posting_bytes),
            static_cast<double>(index.num_postings));
  for (size_t d = 0; d < kNumDefenses; ++d) {
    if (stack.traced[d] != nullptr) {
      round.defense[d].engine = stack.traced[d]->totals();
    }
  }
}

/// What every defense is sent in one round, and when the corpus changes.
struct Plan {
  /// Per defense, the queries in order. aol_fresh and aol_churn send every
  /// defense the same stream; adversary records each defense's stream from
  /// a live UNBIASED-EST run in round 0.
  std::vector<KeywordQuery> streams[kNumDefenses];
  /// Stream positions before which the next delta is published (ascending).
  /// Deltas left over are published after the timed queries.
  std::vector<size_t> publish_at;
};

/// Re-issues every kReissueStride-th query of the round's last epoch to
/// every defense (untimed; the client checks each answer against the
/// epoch's first one).
void Reissue(Client& client, const Plan& plan) {
  const size_t epoch_begin = plan.publish_at.empty() ? 0 : plan.publish_at.back();
  for (size_t d = 0; d < kNumDefenses; ++d) {
    const std::vector<KeywordQuery>& stream = plan.streams[d];
    for (size_t i = epoch_begin; i < stream.size(); i += kReissueStride) {
      client.Issue(d, stream[i], /*timed=*/false);
    }
  }
}

/// aol_fresh and adversary publish after their timed queries; the AS-ARBI
/// query after each publish pays the migration of everything the workload
/// accumulated.
void ClosingPublishes(Client& client, const Inputs& in, const Plan& plan,
                      Round& round) {
  for (size_t i = plan.publish_at.size(); i < in.deltas.size(); ++i) {
    client.Publish(in.deltas[i]);
    int64_t latency = 0;
    client.Issue(kArbi, plan.streams[kArbi][i], /*timed=*/false, &latency);
    if (!round.traced) {
      round.migrate_ms.push_back(static_cast<double>(latency) * 1e-6);
    }
  }
}

/// The end of every round: counts and state first, then the re-issue
/// check, then the closing publish.
void FinishRound(Client& client, const Stack& stack, const Inputs& in,
                 const Plan& plan, Round& round) {
  CollectCounts(stack, round);
  Reissue(client, plan);
  ClosingPublishes(client, in, plan, round);
  round.simple_stats.epoch_migrations = stack.simple->stats().epoch_migrations;
  round.arbi_stats.epoch_migrations = stack.arbi->stats().epoch_migrations;
}

/// A timed round: replays the plan's streams in chunks of kChunk queries,
/// defense after defense, so that all three defenses are measured across
/// the whole round rather than each in its own stretch of it.
void RunStreams(Client& client, const Stack& stack, const Inputs& in,
                const Plan& plan, Round& round) {
  constexpr size_t kChunk = 64;
  size_t length = 0;
  for (const auto& stream : plan.streams) length = std::max(length, stream.size());
  const int64_t start = NowNanos();
  int64_t publish_ns = 0;
  size_t begin = 0;
  for (size_t epoch = 0; epoch <= plan.publish_at.size(); ++epoch) {
    const size_t end =
        epoch < plan.publish_at.size() ? plan.publish_at[epoch] : length;
    if (epoch > 0) {
      const int64_t publish_start = NowNanos();
      client.Publish(in.deltas[epoch - 1]);
      publish_ns += NowNanos() - publish_start;
    }
    for (size_t chunk = begin; chunk < end; chunk += kChunk) {
      for (size_t d = 0; d < kNumDefenses; ++d) {
        const std::vector<KeywordQuery>& stream = plan.streams[d];
        const size_t stop = std::min({chunk + kChunk, end, stream.size()});
        for (size_t i = chunk; i < stop; ++i) {
          int64_t latency = 0;
          client.Issue(d, stream[i], /*timed=*/true, &latency);
          if (d == kArbi && i == begin && epoch > 0 && !round.traced) {
            round.migrate_ms.push_back(static_cast<double>(latency) * 1e-6);
          }
        }
      }
    }
    begin = end;
  }
  round.client_ns =
      NowNanos() - start - round.check_ns - publish_ns - SearchNanos(round);
  FinishRound(client, stack, in, plan, round);
}

/// Round 0 of adversary: UNBIASED-EST, estimating COUNT(*), runs live
/// against each defense in turn; the streams it sends become the plan the
/// timed rounds replay.
void RunLiveAdversary(Client& client, const Stack& stack, const Inputs& in,
                      uint64_t budget, Plan& plan, Round& round) {
  const SnapshotHandle snapshot = stack.manager->Current();
  const DocFetcher fetcher = FetchFrom(snapshot->corpus());
  const int64_t start = NowNanos();
  for (size_t d = 0; d < kNumDefenses; ++d) {
    DefenseClient service(client, d, plan.streams[d]);
    UnbiasedEstimator::Options options;
    options.seed = in.estimator_seed;
    UnbiasedEstimator estimator(*in.pool, AggregateQuery::Count(), fetcher,
                                options);
    const std::vector<EstimationPoint> points =
        estimator.Run(service, budget, budget);
    round.estimate[d] = points.back().estimate;
  }
  round.client_ns = NowNanos() - start - round.check_ns - SearchNanos(round);
  FinishRound(client, stack, in, plan, round);
}

SearchResult DefenseClient::Search(const KeywordQuery& query) {
  stream_->push_back(query);
  return client_->Issue(defense_, query, /*timed=*/true);
}

/// The parallel path: AS-ARBI's deterministic batch mode over the round's
/// AS-ARBI query stream, against a serial loop over the same stream. Each
/// timed repetition gets a fresh engine, so both sides start from an empty
/// cache and history.
struct BatchDiagnostic {
  double batch_qps = 0.0;
  double speedup = 0.0;
  size_t workers = 0;
  bool answers_match = true;
};

BatchDiagnostic RunBatchDiagnostic(const Inputs& in,
                                   const std::vector<KeywordQuery>& stream) {
  constexpr int kRepetitions = 3;
  BatchDiagnostic out;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  out.workers = std::max<size_t>(1, nproc - 1);  // the caller runs chunks too
  ThreadPool pool(out.workers);
  const BatchExecutor executor(pool);
  CorpusManager manager(CopyCorpus(in.corpus));
  PlainSearchEngine engine(manager, kK);
  const auto digest_of = [](const std::vector<SearchResult>& results) {
    uint64_t digest = 0;
    for (const SearchResult& r : results) {
      digest = HashCombine(digest, AnswerDigest(r));
    }
    return digest;
  };
  {
    // Warm-up: wakes the pool's workers and faults in their stacks.
    AsArbiEngine warm(engine, AsArbiConfig());
    executor.ExecuteDeterministic(warm, stream);
  }
  std::vector<double> serial_s;
  std::vector<double> batch_s;
  uint64_t serial_digest = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    {
      AsArbiEngine arbi(engine, AsArbiConfig());
      std::vector<SearchResult> results;
      results.reserve(stream.size());
      const int64_t start = NowNanos();
      for (const KeywordQuery& query : stream) {
        results.push_back(arbi.Search(query));
      }
      serial_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
      serial_digest = digest_of(results);
    }
    {
      AsArbiEngine arbi(engine, AsArbiConfig());
      const int64_t start = NowNanos();
      const std::vector<SearchResult> results =
          executor.ExecuteDeterministic(arbi, stream);
      batch_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
      out.answers_match = out.answers_match && digest_of(results) == serial_digest;
    }
  }
  const auto n = static_cast<double>(stream.size());
  out.batch_qps = Ratio(n, Median(batch_s));
  out.speedup = Ratio(out.batch_qps, Ratio(n, Median(serial_s)));
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  static constexpr const char* kKindName[] = {"engine.top", "engine.count",
                                              "engine.ids", "engine.rank",
                                              "search"};
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "query\tdefense\tspan\tstart_ns\tend_ns\n";
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    out << s.query << '\t' << kDefenseName[s.defense] << '\t'
        << kKindName[static_cast<size_t>(s.kind)] << '\t'
        << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
  }
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

/// Median over `rounds` of a per-round value.
template <typename F>
double MedianOver(const std::vector<const Round*>& rounds, F value) {
  std::vector<double> values;
  for (const Round* round : rounds) values.push_back(value(*round));
  return Median(std::move(values));
}

/// Median over every sample of a per-round sample list.
double MedianOfSamples(const std::vector<const Round*>& rounds,
                       std::vector<double> Round::*samples) {
  std::vector<double> all;
  for (const Round* round : rounds) {
    all.insert(all.end(), (round->*samples).begin(), (round->*samples).end());
  }
  return Median(std::move(all));
}

}  // namespace

Result RunWorkload(const Options& options) {
  const Workload workload = ParseWorkload(options.workload);
  const Scale& scale = options.small ? kSmallScale : kFullScale;
  const Inputs in = MakeInputs(workload, scale, options.seed);

  // Round 0 warms up; traced runs then alternate traced and untraced
  // rounds, so trace.overhead compares rounds that ran side by side.
  const size_t min_rounds = 1 + (options.trace ? 2 * 2 : kMinTimedRounds);
  const size_t fixed_rounds =
      options.rounds > 0
          ? std::max<size_t>(static_cast<size_t>(options.rounds),
                             options.trace ? 3 : 2)
          : 0;
  Plan plan;
  if (workload != Workload::kAdversary) {
    for (auto& stream : plan.streams) stream = in.queries;
  }
  if (workload == Workload::kChurn) {
    for (size_t i = 1; i <= in.deltas.size(); ++i) {
      plan.publish_at.push_back(i * scale.churn_every);
    }
  }

  std::vector<Round> rounds;
  std::vector<SpanRecord> spans;
  const int64_t start = NowNanos();
  for (size_t r = 0;; ++r) {
    Round& round = rounds.emplace_back();
    round.traced = options.trace && r % 2 == 1;
    std::vector<SpanRecord>* round_spans = round.traced ? &spans : nullptr;
    if (round.traced) spans.clear();
    uint32_t query_id = 0;
    std::unique_ptr<Stack> stack =
        BuildStack(in.corpus, round, round_spans, query_id);
    Client client(*stack, round, round_spans, query_id);
    if (workload == Workload::kAdversary && r == 0) {
      RunLiveAdversary(client, *stack, in, scale.adversary_budget, plan, round);
    } else {
      RunStreams(client, *stack, in, plan, round);
    }
    stack.reset();
    for (DefenseRound& out : round.defense) {
      std::sort(out.latencies.begin(), out.latencies.end());
      out.p50_us = Quantile(out.latencies, 0.50) * 1e-3;
      out.p99_us = Quantile(out.latencies, 0.99) * 1e-3;
      out.latencies = {};
    }
    const double elapsed = static_cast<double>(NowNanos() - start) * 1e-9;
    if (fixed_rounds > 0 ? rounds.size() >= fixed_rounds
                         : rounds.size() >= min_rounds &&
                               elapsed >= options.seconds) {
      break;
    }
  }

  Result result;
  const Round& first = rounds.front();
  std::vector<const Round*> untraced;  // timed rounds
  std::vector<const Round*> traced;
  for (size_t r = 1; r < rounds.size(); ++r) {
    (rounds[r].traced ? traced : untraced).push_back(&rounds[r]);
  }
  for (const Round& round : rounds) {
    result.attempted += round.attempted;
    result.failed += round.failed;
    // Rounds are identical: any difference in answers or state is a defect.
    bool same = round.state_bytes == first.state_bytes;
    for (size_t d = 0; d < kNumDefenses; ++d) {
      same = same && round.defense[d].digest == first.defense[d].digest;
    }
    if (!same) {
      result.correct = false;
      result.notes.push_back("answers differ between rounds");
    }
  }

  result.notes.push_back(
      "per round: " + std::to_string(plan.streams[kArbi].size()) +
      " timed AS-ARBI queries, " +
      std::to_string(first.publishes) + " publishes; " +
      std::to_string(rounds.size()) + " rounds including the warm-up" +
      (in.pool != nullptr
           ? "; query pool of " + std::to_string(in.pool->size()) + " words"
           : ""));
  for (size_t d = 0; d < kNumDefenses; ++d) {
    result.digests.push_back(options.workload + "." + kDefenseName[d] +
                             ".digest " + Hex(first.defense[d].digest));
  }
  if (workload == Workload::kAdversary) {
    for (size_t d = 0; d < kNumDefenses; ++d) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.6f", first.estimate[d]);
      result.digests.push_back(options.workload + "." + kDefenseName[d] +
                               ".estimate " + buffer);
    }
  }

  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", "s",
                 MedianOver(untraced, [](const Round& r) { return r.setup_s; })});
  for (size_t d = 0; d < kNumDefenses; ++d) {
    const std::string name = kDefenseName[d];
    e2e.push_back({name + ".p50_us", "us",
                   MedianOver(untraced, [d](const Round& r) {
                     return r.defense[d].p50_us;
                   })});
    e2e.push_back({name + ".p99_us", "us",
                   MedianOver(untraced, [d](const Round& r) {
                     return r.defense[d].p99_us;
                   })});
    e2e.push_back({name + ".qps", "1/s",
                   MedianOver(untraced, [d](const Round& r) {
                     return Qps(r.defense[d]);
                   })});
  }
  e2e.push_back({"publish_ms", "ms",
                 MedianOfSamples(untraced, &Round::publish_ms)});
  e2e.push_back({"arbi.migrate_ms", "ms",
                 MedianOfSamples(untraced, &Round::migrate_ms)});
  e2e.push_back({"arbi.state_kb", "KiB",
                 static_cast<double>(first.state_bytes) / 1024.0, true});
  e2e.push_back({"peak_rss_mb", "MiB", PeakRssMb()});
  e2e.push_back({"ok_ratio", "ratio",
                 Ratio(static_cast<double>(result.attempted - result.failed),
                       static_cast<double>(result.attempted)),
                 true});

  if (!options.trace) return result;

  // Per-layer metrics: counts from the last traced round (every round has
  // the same), times as medians over the traced rounds.
  const Round& last = *traced.back();
  auto& layer = result.per_layer;
  static constexpr const char* kEngineSpan[kNumEngineSpans] = {
      "engine.top", "engine.count", "engine.ids", "engine.rank"};
  for (size_t s = 0; s < kNumEngineSpans; ++s) {
    uint64_t calls = 0;
    for (const DefenseRound& d : last.defense) calls += d.engine.calls[s];
    layer.push_back({std::string(kEngineSpan[s]) + ".calls", "count",
                     static_cast<double>(calls), true});
    layer.push_back({std::string(kEngineSpan[s]) + ".us", "us",
                     MedianOver(traced, [s](const Round& r) {
                       uint64_t n = 0;
                       int64_t ns = 0;
                       for (const DefenseRound& d : r.defense) {
                         n += d.engine.calls[s];
                         ns += d.engine.nanos[s];
                       }
                       return Ratio(static_cast<double>(ns) * 1e-3,
                                    static_cast<double>(n));
                     })});
  }
  const DefenseRound& arbi = last.defense[kArbi];
  layer.push_back({"arbi.walks_per_miss", "count",
                   Ratio(static_cast<double>(arbi.miss_engine_calls),
                         static_cast<double>(arbi.misses)),
                   true});
  layer.push_back({"engine.postings_per_us", "1/us",
                   MedianOver(traced, [](const Round& r) {
                     uint64_t postings = 0;
                     int64_t ns = 0;
                     for (const DefenseRound& d : r.defense) {
                       postings += d.engine.top_postings;
                       ns += d.engine.nanos[0];
                     }
                     return Ratio(static_cast<double>(postings),
                                  static_cast<double>(ns) * 1e-3);
                   })});
  for (size_t d : {kSimple, kArbi}) {
    const std::string name = kDefenseName[d];
    const DefenseRound& dr = last.defense[d];
    layer.push_back({name + ".engine_share", "ratio",
                     MedianOver(traced, [d](const Round& r) {
                       return Ratio(static_cast<double>(r.defense[d].engine_ns),
                                    static_cast<double>(r.defense[d].search_ns));
                     })});
    layer.push_back({name + ".self_us", "us",
                     MedianOver(traced, [d](const Round& r) {
                       return Ratio(static_cast<double>(r.defense[d].miss_self_ns) * 1e-3,
                                    static_cast<double>(r.defense[d].misses));
                     })});
    layer.push_back({name + ".hit_us", "us",
                     MedianOver(traced, [d](const Round& r) {
                       std::vector<double> hits(r.defense[d].hit_latencies.begin(),
                                                r.defense[d].hit_latencies.end());
                       return Median(hits) * 1e-3;
                     })});
    layer.push_back({name + ".hit_ratio", "ratio",
                     Ratio(static_cast<double>(dr.hits),
                           static_cast<double>(dr.hits + dr.misses)),
                     true});
  }
  const auto count = [&layer](const char* name, double value) {
    layer.push_back({name, "count", value, true});
  };
  count("simple.docs_hidden", static_cast<double>(last.simple_stats.docs_hidden));
  count("simple.docs_trimmed", static_cast<double>(last.simple_stats.docs_trimmed));
  count("simple.activated_docs", static_cast<double>(last.activated_docs));
  count("arbi.trigger_evals",
        static_cast<double>(last.arbi_stats.trigger_evaluations));
  count("arbi.virtual_answers",
        static_cast<double>(last.arbi_stats.virtual_answers));
  layer.push_back({"arbi.cover_yield", "ratio",
                   Ratio(static_cast<double>(last.arbi_stats.virtual_answers),
                         static_cast<double>(last.arbi_stats.trigger_evaluations)),
                   true});
  count("arbi.history_queries", static_cast<double>(last.history_queries));
  count("arbi.history_docs", static_cast<double>(last.history_docs));
  std::vector<const Round*> timed = untraced;
  timed.insert(timed.end(), traced.begin(), traced.end());
  layer.push_back({"index.build_ms", "ms", MedianOver(timed, [](const Round& r) {
                     return r.index_build_ms;
                   })});
  layer.push_back({"index.bytes_per_posting", "B", last.bytes_per_posting, true});
  layer.push_back({"index.apply_docs", "count",
                   Ratio(static_cast<double>(last.apply_docs),
                         static_cast<double>(last.publishes)),
                   true});
  layer.push_back({"arbi.migrate_eager_ms", "ms",
                   MedianOfSamples(traced, &Round::migrate_eager_ms)});
  count("simple.migrations",
        static_cast<double>(last.simple_stats.epoch_migrations));
  count("arbi.migrations", static_cast<double>(last.arbi_stats.epoch_migrations));

  const BatchDiagnostic batch = RunBatchDiagnostic(in, plan.streams[kArbi]);
  if (!batch.answers_match) {
    result.correct = false;
    result.notes.push_back("batch answers differ from serial answers");
  }
  layer.push_back({"batch.qps", "1/s", batch.batch_qps});
  layer.push_back({"batch.speedup", "x", batch.speedup});
  result.notes.push_back(
      "batch.qps: AS-ARBI ExecuteDeterministic, " +
      std::to_string(batch.workers) +
      " pool workers plus the caller, pool warmed by one untimed batch. "
      "Diagnostic only, not an end-to-end metric: the first batch after the "
      "machine sits idle runs at about a third of the steady rate, and on a "
      "shared machine the rate follows other tenants' load.");
  // Round 0 is the one round in which adversary's estimator runs live.
  layer.push_back({"attack.client_share", "ratio",
                   Ratio(static_cast<double>(first.client_ns),
                         static_cast<double>(first.client_ns +
                                             SearchNanos(first)))});
  // Each traced round against the untraced round right after it: the two
  // ran back to back, so machine drift cancels best.
  std::vector<double> overhead;
  for (size_t r = 1; r + 1 < rounds.size(); r += 2) {
    overhead.push_back(1.0 - Ratio(Qps(rounds[r].defense[kArbi]),
                                   Qps(rounds[r + 1].defense[kArbi])));
  }
  layer.push_back({"trace.overhead", "ratio", Median(overhead)});
  if (!options.spans_out.empty()) WriteSpans(options.spans_out, spans);
  return result;
}

}  // namespace asup::perfbench
