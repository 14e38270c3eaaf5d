// Command-line entry point of the end-to-end benchmark. perfbench/run.py builds
// and runs it; see perfbench/README.md.
//
//   asup_perfbench --workload aol_fresh|aol_churn|adversary --seed N
//                  --seconds S --trace 0|1 [--small] [--rounds N]
//                  [--spans-out FILE] [--git-sha SHA] [--source-sha SHA]
//
// Prints the run's descriptor, answer digests and a metric table, then as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

namespace {

using asup::perfbench::Metric;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: asup_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--small] [--rounds N] "
               "[--spans-out FILE] [--git-sha SHA] [--source-sha SHA]\n",
               message);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  asup::perfbench::Options options;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--rounds") {
      options.rounds = std::atoi(value().c_str());
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--source-sha") {
      source_sha = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");

  std::printf(
      "# run {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d, \"small\": %d, \"git_sha\": %s, \"source_sha\": %s, \"compiler\": "
      "%s, \"build_type\": %s, \"asup_metrics\": %s, \"nproc\": %u}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      options.small ? 1 : 0, JsonString(git_sha).c_str(),
      JsonString(source_sha).c_str(),
      JsonString(std::string("GCC ") + __VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_METRICS).c_str(),
      std::thread::hardware_concurrency());
  std::fflush(stdout);

  const asup::perfbench::Result result = asup::perfbench::RunWorkload(options);

  for (const std::string& line : result.digests) {
    std::printf("# digest %s\n", line.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("# note %s\n", note.c_str());
  }
  std::vector<Metric> all = result.end_to_end;
  all.insert(all.end(), result.per_layer.begin(), result.per_layer.end());
  for (const Metric& m : all) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // The values that must repeat exactly across runs with the same seed,
  // however many rounds fit in --seconds; run.py --selftest compares these
  // lines between runs.
  std::vector<Metric> deterministic;
  for (const Metric& m : all) {
    if (m.deterministic) deterministic.push_back(m);
  }
  deterministic.push_back({"failed", "count",
                           static_cast<double>(result.failed), true});
  std::printf("# counts %s\n", MetricsJson(deterministic).c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(options.trace ? result.per_layer
                                        : result.end_to_end)
                  .c_str());
  return 0;
}
