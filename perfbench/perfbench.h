// The end-to-end benchmark's workloads and the metrics they report.
// See perfbench/README.md for what each workload stresses and why.
#ifndef ASUP_PERFBENCH_PERFBENCH_H_
#define ASUP_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace asup::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Wall time the round loop runs for, set-up of each round included.
  double seconds = 10.0;
  /// Runs the traced variant: engine spans, hit/miss split, per-layer
  /// metrics, and the parallel batch diagnostic.
  bool trace = false;
  /// Reduced corpus, population and budget (the self-test's size).
  bool small = false;
  /// When > 0, run exactly this many rounds instead of `seconds`.
  int rounds = 0;
  /// When non-empty (traced runs), the spans of the last traced round are
  /// written here as tab-separated text.
  std::string spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// True for a count (or a ratio of counts): it must repeat exactly
  /// across runs with the same seed, whatever the machine.
  bool deterministic = false;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (reported with tracing off).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> per_layer;
  /// "name value" lines that must repeat exactly across runs: answer
  /// digests per defense and UNBIASED-EST's final estimates.
  std::vector<std::string> digests;
  /// Free-text notes printed next to the numbers.
  std::vector<std::string> notes;
};

/// Runs one workload. Aborts with a message on an unknown workload name.
Result RunWorkload(const Options& options);

}  // namespace asup::perfbench

#endif  // ASUP_PERFBENCH_PERFBENCH_H_
