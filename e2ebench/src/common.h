#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

// Shared plumbing of the benchmark binary: the run context, the metric
// sink, output-check failure, and corpus staging through the public
// corpus-format API.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/fieldswap_api.h"
#include "spans.h"

namespace e2ebench {

struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string workdir;   // caches and traces, inside the checkout
  std::string run_dir;   // per-process files under workdir, removed at exit
  std::string candidate_cache;  // invoice candidate-model checkpoint
  int cpus = 1;          // CPUs this process may run on
  SpanRecorder* spans = nullptr;  // non-null only in the traced run
};

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 1;
};
using MetricSet = std::map<std::string, Metric>;

// An output check failed: report it and exit non-zero without printing a
// result line.
[[noreturn]] void FailCheck(const std::string& what);

// Mixes a label into a seed (splitmix64), so every input stream of a run
// derives from --seed alone.
uint64_t DeriveSeed(uint64_t seed, const std::string& label);

// FNV-1a over a file's bytes; used to confirm that repeated set-ups
// produced identical inputs.
uint64_t FileFingerprint(const std::string& path);

// Writes `docs` as a native corpus file at `path` (the doc layer's
// writer); fails the run on an I/O error.
void WriteNativeCorpus(const std::vector<fieldswap::Document>& docs,
                         const std::string& path);

// Opens a corpus file through the format registry; fails the run if the
// file cannot be opened.
std::unique_ptr<fieldswap::doc::CorpusReader> OpenOrFail(
    const std::string& path);

// Materializes every document of a reader, in order.
std::vector<fieldswap::Document> ReadAll(
    const fieldswap::doc::CorpusReader& reader);

// How often GetOrTrainCachedCandidateModel found no loadable checkpoint
// and pre-trained instead (the program's public cache-miss counter).
int64_t CandidateCacheMisses();

// Median of a small sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

// Peak resident set size of this process in MiB.
double PeakRssMb();

// Predicted spans from direct Predict calls on `model`, fanned out on the
// library's pool: the expected payload of every served request.
std::vector<std::vector<fieldswap::EntitySpan>> PredictAll(
    const fieldswap::SequenceLabelingModel& model,
    const std::vector<fieldswap::Document>& docs);

// Macro F1 of `predictions` against the documents' gold annotations,
// scored with the library's own span matching.
double MacroF1(const std::vector<fieldswap::Document>& docs,
               const std::vector<std::vector<fieldswap::EntitySpan>>&
                   predictions);

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
