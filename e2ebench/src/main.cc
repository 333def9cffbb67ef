// End-to-end FieldSwap benchmark.
//
//   e2ebench --workload <pipeline_earnings|serve_tenants>
//            --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one line per metric (name, value, unit, sample count) and, as the
// last line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics when untraced, the per-layer metrics
// when traced (a layer that does no work on a workload reports nothing;
// run.py checks the names and units against BENCHMARK.json). An output
// check that fails exits with status 3 and no result line. See
// ../NOTES.md for the workloads and metric map.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "loadgen.h"
#include "workloads.h"

namespace e2ebench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               problem.c_str());
  std::exit(2);
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

// Makes sure the benchmark's candidate-model cache loads, pre-training it
// (before any timed work) when it is missing, unreadable or does not match
// the current model layout, and returns how long the pre-training that
// built it took. A cache without its recorded time is rebuilt, so the
// reported time is always that of the checkpoint in use.
double EnsureCandidateCache(const std::string& cache) {
  const std::string record = cache + ".pretrain_s";
  if (!std::filesystem::exists(record)) std::filesystem::remove(cache);
  const int64_t misses = CandidateCacheMisses();
  const double start = MonotonicSeconds();
  fieldswap::GetOrTrainCachedCandidateModel(cache);
  const double seconds = MonotonicSeconds() - start;
  if (CandidateCacheMisses() == misses) {
    double recorded = 0;
    std::ifstream(record) >> recorded;
    if (recorded > 0) return recorded;
  }
  // Pre-trained just now, and the checkpoint rewritten.
  std::ofstream(record) << seconds << "\n";
  return seconds;
}

void Print(const RunContext& ctx, const RunOutput& out,
           const MetricSet& metrics) {
  std::printf("# workload=%s seed=%llu trace=%d cpus=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.trace ? 1 : 0, ctx.cpus);
  for (const auto& [name, m] : metrics) {
    std::printf("%-34s %16.6f %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunContext ctx;
  std::string trace_flag, seed_flag;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") ctx.workload = value;
    else if (key == "--seed") seed_flag = value;
    else if (key == "--seconds") ctx.seconds = std::atoi(value.c_str());
    else if (key == "--trace") trace_flag = value;
    else if (key == "--workdir") ctx.workdir = value;
    else Usage("unknown flag " + key);
  }
  if (argc % 2 == 0) Usage("flags come in pairs");
  if (seed_flag.empty() || ctx.workdir.empty()) Usage("missing flag");
  if (seed_flag.find_first_not_of("0123456789") != std::string::npos) {
    Usage("--seed takes a non-negative integer");
  }
  if (trace_flag != "0" && trace_flag != "1") Usage("--trace takes 0 or 1");
  if (ctx.seconds < 1) Usage("--seconds must be positive");
  ctx.seed = std::strtoull(seed_flag.c_str(), nullptr, 10);
  ctx.trace = trace_flag == "1";

  void (*run)(const RunContext&, RunOutput&) = nullptr;
  if (ctx.workload == "pipeline_earnings") run = RunPipelineEarnings;
  if (ctx.workload == "serve_tenants") run = RunServeTenants;
  if (run == nullptr) Usage("unknown workload '" + ctx.workload + "'");

  ctx.cpus = UsableCpus();
  std::filesystem::create_directories(ctx.workdir);
  ctx.candidate_cache = ctx.workdir + "/candidate_model.ckpt";
  ctx.run_dir = ctx.workdir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.run_dir);

  RunOutput out;
  out.layers["model.candidate_pretrain_s"] = {
      EnsureCandidateCache(ctx.candidate_cache), "s", 1};
  SpanRecorder recorder;
  if (ctx.trace) ctx.spans = &recorder;

  run(ctx, out);
  out.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB", 1};
  std::filesystem::remove_all(ctx.run_dir);

  if (ctx.trace) {
    std::string dir = ctx.workdir + "/traces";
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + ctx.workload + "-seed" +
                       std::to_string(ctx.seed) + ".json";
    if (!recorder.WriteJson(path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans: %s\n# %-30s %8s %12s %12s\n", path.c_str(), "span",
                "count", "total_s", "self_s");
    for (const auto& [name, s] : Summarize(recorder.spans())) {
      std::printf("# %-30s %8zu %12.6f %12.6f\n", name.c_str(), s.count,
                  s.total_s, s.self_s);
    }
    Print(ctx, out, out.layers);
  } else {
    Print(ctx, out, out.e2e);
  }
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
