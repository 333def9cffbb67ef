#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "obs/metrics.h"

namespace e2ebench {

void FailCheck(const std::string& what) {
  std::fprintf(stderr, "e2ebench: output check failed: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

uint64_t DeriveSeed(uint64_t seed, const std::string& label) {
  uint64_t h = seed;
  for (char c : label) h = h * 1099511628211ULL + static_cast<uint8_t>(c);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

uint64_t FileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ULL;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    h = (h ^ static_cast<uint8_t>(*it)) * 1099511628211ULL;
  }
  return h;
}

void WriteNativeCorpus(const std::vector<fieldswap::Document>& docs,
                       const std::string& path) {
  fieldswap::doc::CorpusStatus status;
  auto writer = fieldswap::api::WriteCorpus(path, "native", &status);
  if (writer == nullptr) FailCheck("cannot write " + path + ": " + status.ToString());
  for (const fieldswap::Document& doc : docs) writer->Add(doc);
  if (!writer->Finish()) {
    FailCheck("cannot write " + path + ": " + writer->status().ToString());
  }
}

std::unique_ptr<fieldswap::doc::CorpusReader> OpenOrFail(
    const std::string& path) {
  fieldswap::doc::CorpusStatus status;
  auto reader = fieldswap::api::OpenCorpus(path, "", &status);
  if (reader == nullptr) FailCheck("cannot open " + path + ": " + status.ToString());
  return reader;
}

std::vector<fieldswap::Document> ReadAll(
    const fieldswap::doc::CorpusReader& reader) {
  std::vector<fieldswap::Document> docs;
  docs.reserve(reader.size());
  for (size_t i = 0; i < reader.size(); ++i) {
    docs.push_back(fieldswap::doc::ReadDocumentOrDie(reader, i));
  }
  return docs;
}

int64_t CandidateCacheMisses() {
  return fieldswap::obs::GlobalMetrics().CounterValue(
      "fieldswap.eval.candidate_cache_misses");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::vector<fieldswap::EntitySpan>> PredictAll(
    const fieldswap::SequenceLabelingModel& model,
    const std::vector<fieldswap::Document>& docs) {
  return fieldswap::par::ParallelMap(
      docs.size(), [&](size_t i) { return model.Predict(docs[i]); });
}

double MacroF1(const std::vector<fieldswap::Document>& docs,
               const std::vector<std::vector<fieldswap::EntitySpan>>&
                   predictions) {
  std::map<std::string, fieldswap::FieldScore> scores;
  for (size_t i = 0; i < docs.size(); ++i) {
    fieldswap::AccumulateSpanScores(docs[i].annotations(), predictions[i],
                                    scores);
  }
  return fieldswap::FinalizeScores(std::move(scores)).macro_f1;
}

}  // namespace e2ebench
