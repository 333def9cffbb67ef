#include "probes.h"

#include <algorithm>

#include "alloc_count.h"
#include "api/internals.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace e2ebench {
namespace {

constexpr size_t kModelProbeDocs = 200;
constexpr int kTrainWarmupSteps = 5;
constexpr int kTrainProbeSteps = 60;
constexpr int kObsProbeCalls = 200000;
constexpr size_t kServeProbeDocs = 300;
constexpr int kServeProbeReps = 3;

}  // namespace

void ProbeModel(const fieldswap::SequenceLabelingModel& model,
                const std::vector<fieldswap::Document>& docs,
                MetricSet& layers) {
  const size_t n = std::min(kModelProbeDocs, docs.size());
  // One untimed document first, so lazy set-up is not charged to it.
  model.PredictEncoded(model.EncodeDoc(docs[0]));
  double encode_s = 0, infer_s = 0, predict_s = 0;
  uint64_t allocs = 0;
  for (size_t i = 0; i < n; ++i) {
    double t0 = MonotonicSeconds();
    fieldswap::EncodedDoc encoded = model.EncodeDoc(docs[i]);
    double t1 = MonotonicSeconds();
    uint64_t a0 = AllocCount();
    SetAllocCounting(true);
    fieldswap::Matrix logits = model.InferLogits(encoded);
    SetAllocCounting(false);
    allocs += AllocCount() - a0;
    double t2 = MonotonicSeconds();
    std::vector<fieldswap::EntitySpan> spans = model.PredictEncoded(encoded);
    double t3 = MonotonicSeconds();
    encode_s += t1 - t0;
    infer_s += t2 - t1;
    predict_s += t3 - t2;
  }
  const double per_doc_us = 1e6 / static_cast<double>(n);
  layers["model.encode_us_per_doc"] = {encode_s * per_doc_us, "us", n};
  layers["model.infer_logits_us_per_doc"] = {infer_s * per_doc_us, "us", n};
  layers["model.decode_us_per_doc"] = {
      std::max(0.0, predict_s - infer_s) * per_doc_us, "us", n};
  layers["model.infer_allocs_per_doc"] = {
      static_cast<double>(allocs) / static_cast<double>(n), "allocs", n};
}

void ProbeTrainStep(const fieldswap::SequenceLabelingModel& model,
                    const std::vector<fieldswap::Document>& train_docs,
                    MetricSet& layers) {
  // A fresh model holding a copy of the weights, so the probe's updates
  // never touch the model under test.
  fieldswap::SequenceLabelingModel copy(model.config(), model.schema());
  fieldswap::RestoreParams(copy.Params(),
                           fieldswap::SnapshotParams(model.Params()));
  std::vector<fieldswap::EncodedDoc> encoded;
  for (const fieldswap::Document& doc : train_docs) {
    encoded.push_back(copy.EncodeDoc(doc));
  }
  fieldswap::AdamOptimizer::Options options;
  options.learning_rate = fieldswap::TrainDefaults::kLearningRate;
  fieldswap::AdamOptimizer optimizer(copy.Params(), options);

  double loss_s = 0, backward_s = 0, step_s = 0;
  uint64_t allocs = 0;
  for (int step = 0; step < kTrainWarmupSteps + kTrainProbeSteps; ++step) {
    const bool measured = step >= kTrainWarmupSteps;
    const fieldswap::EncodedDoc& doc =
        encoded[static_cast<size_t>(step) % encoded.size()];
    uint64_t a0 = AllocCount();
    SetAllocCounting(measured);
    double t0 = MonotonicSeconds();
    fieldswap::Var loss = copy.Loss(doc);
    double t1 = MonotonicSeconds();
    fieldswap::Backward(loss);
    double t2 = MonotonicSeconds();
    optimizer.Step();
    double t3 = MonotonicSeconds();
    loss.reset();  // the tape is freed inside the counted region too
    SetAllocCounting(false);
    if (!measured) continue;
    allocs += AllocCount() - a0;
    loss_s += t1 - t0;
    backward_s += t2 - t1;
    step_s += t3 - t2;
  }
  const double per_step_us = 1e6 / kTrainProbeSteps;
  const size_t n = kTrainProbeSteps;
  layers["nn.loss_forward_us"] = {loss_s * per_step_us, "us", n};
  layers["nn.backward_us"] = {backward_s * per_step_us, "us", n};
  layers["nn.adam_step_us"] = {step_s * per_step_us, "us", n};
  layers["nn.allocs_per_train_step"] = {
      static_cast<double>(allocs) / kTrainProbeSteps, "allocs", n};
}

void ProbeObs(MetricSet& layers) {
  double t0 = MonotonicSeconds();
  for (int i = 0; i < kObsProbeCalls; ++i) {
    fieldswap::obs::CounterAdd("e2ebench.probe.counter");
  }
  double t1 = MonotonicSeconds();
  // A private recorder keeps the probe's events out of the program's
  // global trace.
  fieldswap::obs::TraceRecorder recorder;
  for (int i = 0; i < kObsProbeCalls; ++i) {
    fieldswap::obs::TraceSpan span("e2ebench.probe.span", &recorder);
  }
  double t2 = MonotonicSeconds();
  const size_t n = kObsProbeCalls;
  layers["obs.counter_add_ns"] = {(t1 - t0) * 1e9 / n, "ns", n};
  layers["obs.trace_span_ns"] = {(t2 - t1) * 1e9 / n, "ns", n};
}

void ProbeRead(const std::string& path, MetricSet& layers) {
  double t0 = MonotonicSeconds();
  auto reader = OpenOrFail(path);
  std::vector<fieldswap::Document> docs = ReadAll(*reader);
  double seconds = MonotonicSeconds() - t0;
  layers["doc.read_docs_per_s"] = {static_cast<double>(docs.size()) / seconds,
                                   "docs/s", docs.size()};
}

void ProbeServeOverhead(
    std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot,
    const std::vector<fieldswap::Document>& docs, MetricSet& layers) {
  const size_t n = std::min(kServeProbeDocs, docs.size());
  std::vector<fieldswap::Document> batch(docs.begin(), docs.begin() + n);
  const int threads = fieldswap::par::Threads();
  fieldswap::par::SetThreads(1);
  // Alternate the server and direct Predict over the same documents and
  // keep the median of each; a fresh server per repetition has cold caches.
  std::vector<double> served_s, direct_s;
  for (int rep = 0; rep < kServeProbeReps; ++rep) {
    fieldswap::serve::ExtractionServer server(snapshot);
    double t0 = MonotonicSeconds();
    server.ExtractBatch(batch);
    double t1 = MonotonicSeconds();
    for (const fieldswap::Document& doc : batch) snapshot->model().Predict(doc);
    double t2 = MonotonicSeconds();
    served_s.push_back(t1 - t0);
    direct_s.push_back(t2 - t1);
  }
  fieldswap::par::SetThreads(threads);
  layers["serve.overhead_us_per_doc"] = {
      (Median(served_s) - Median(direct_s)) * 1e6 / static_cast<double>(n),
      "us", n};
}

}  // namespace e2ebench
