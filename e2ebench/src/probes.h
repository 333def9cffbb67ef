#ifndef E2EBENCH_PROBES_H_
#define E2EBENCH_PROBES_H_

// Serial per-layer probes of the traced run. Each probe calls public
// library functions directly on the workload's own model and documents,
// with the pool idle, so its timings and allocation counts belong to the
// layer alone.

#include <memory>
#include <vector>

#include "common.h"

namespace e2ebench {

// Adds model.encode/infer_logits/decode_us_per_doc and
// model.infer_allocs_per_doc: EncodeDoc, InferLogits and PredictEncoded
// per document (decode = PredictEncoded minus InferLogits).
void ProbeModel(const fieldswap::SequenceLabelingModel& model,
                const std::vector<fieldswap::Document>& docs,
                MetricSet& layers);

// Adds nn.loss_forward_us, nn.backward_us, nn.adam_step_us and
// nn.allocs_per_train_step by replaying training steps (Loss, Backward,
// AdamOptimizer::Step) on a copy of `model` over `train_docs`.
void ProbeTrainStep(const fieldswap::SequenceLabelingModel& model,
                    const std::vector<fieldswap::Document>& train_docs,
                    MetricSet& layers);

// Adds obs.counter_add_ns and obs.trace_span_ns: the cost of one call of
// the library's public counter and trace-span API.
void ProbeObs(MetricSet& layers);

// Adds doc.read_docs_per_s: reading every document of a corpus file
// through a fresh reader.
void ProbeRead(const std::string& path, MetricSet& layers);

// Adds serve.overhead_us_per_doc: per-document ExtractionServer time at
// one thread over uncached documents, minus direct Predict on the same
// documents.
void ProbeServeOverhead(
    std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot,
    const std::vector<fieldswap::Document>& docs, MetricSet& layers);

}  // namespace e2ebench

#endif  // E2EBENCH_PROBES_H_
