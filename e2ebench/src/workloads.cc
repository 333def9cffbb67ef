#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "loadgen.h"
#include "probes.h"
#include "serving.h"

namespace e2ebench {
namespace {

using fieldswap::Document;

// Corpus sizes: the paper protocol's 50-document training point and a
// held-out test corpus.
constexpr int kTrainDocs = 50;
constexpr int kTestDocs = 2000;
// The training documents, model initialisation and training stream come
// from this fixed seed (ExperimentConfig's default), not from --seed: with
// 50 documents the F1 of one draw varies by about 10% between draws, which
// would swamp any change the benchmark is meant to show. serve_tenants'
// document pool comes from it too: its median latency is the cache-hit
// cost of the few most popular documents, so a pool drawn per seed moved
// that median with those documents' sizes. --seed drives the pipeline's
// test corpus and every request stream: arrivals, tenants and Zipf draws.
constexpr uint64_t kProtocolSeed = 1234;
// Untraced runs set up this many times and report the median (more for
// the pipeline, whose set-up takes only a tenth of a second).
constexpr int kServeSetupReps = 5;
constexpr int kPipelineSetupReps = 11;
// Pipeline passes per run (median reported); their results must agree
// exactly.
constexpr int kPasses = 3;
// Step budget of the serve model trained in serve_tenants' set-up (no
// augmentation; only its serving cost matters).
constexpr int kServeTrainSteps = 400;
// Reference rates (requests/s). On a 4-vCPU x86-64 KVM guest one serving
// thread handles about 3,000-4,500 unique documents/s, so 1,000 keeps most
// requests from queueing. The tenant mix is served at 10,000-17,000 req/s:
// a cache hit takes 20-50 us, a miss about 0.3 ms, and a hit due while a
// miss runs waits for it. At 500 req/s (1,000 inside bursts) about 70% of
// requests take the hit path, so the median stays inside the hit mode.
constexpr double kUniqueRefRate = 1000;
constexpr double kTenantRefRate = 500;
// Requests per saturation window: about 0.05 s of serving each (see
// kSaturationSeconds in serving.cc).
constexpr size_t kUniqueSaturationRequests = 200;
constexpr size_t kTenantSaturationRequests = 700;
// serve_tenants: four tenants on one snapshot; documents drawn Zipf(1.0)
// over four times the default result-cache capacity.
constexpr int kTenants = 4;
constexpr int kTenantDocs = 4 * 256;
constexpr double kZipfExponent = 1.0;

// Pool threads while serving: the generator's thread leads every batch alone.
// A batch run across several pool workers waits for the slowest of them,
// so one descheduled vCPU stalls the whole batch; on a shared 4-vCPU KVM
// guest that made goodput and p50 swing two to four times more between
// runs than serving on one thread.
constexpr int kServeThreads = 1;

int SetupReps(const RunContext& ctx, int reps) { return ctx.trace ? 1 : reps; }

double CpuPerWall(double cpu_s, double wall_s) {
  return wall_s > 0 ? cpu_s / wall_s : 0;
}

fieldswap::SequenceModelConfig ModelConfig() {
  fieldswap::SequenceModelConfig config;
  config.seed = DeriveSeed(kProtocolSeed, "model");
  return config;
}

// Timing of one stage: wall seconds and process CPU seconds.
struct Stage {
  double wall_s = 0;
  double cpu_s = 0;
};

template <typename Fn>
Stage TimeStage(SpanRecorder* spans, const char* name, Fn&& fn) {
  double cpu0 = ProcessCpuSeconds();
  SpanRecorder::Scope scope(spans, name);
  fn();
  return Stage{scope.elapsed_s(), ProcessCpuSeconds() - cpu0};
}

void AddCorpusMetrics(double docs, const Stage& synth, const Stage& write,
                      MetricSet& layers) {
  size_t n = static_cast<size_t>(docs);
  layers["synth.docs_per_s"] = {docs / synth.wall_s, "docs/s", n};
  layers["doc.write_docs_per_s"] = {docs / write.wall_s, "docs/s", n};
}

void AddTrainMetrics(const Stage& train, int steps, MetricSet& layers) {
  const size_t n = static_cast<size_t>(steps);
  layers["model.train_ms"] = {train.wall_s * 1e3, "ms", 1};
  layers["model.train_steps"] = {static_cast<double>(steps), "steps", 1};
  layers["model.train_step_ms"] = {train.wall_s * 1e3 / steps, "ms", n};
  layers["par.cpu_per_wall.train"] = {CpuPerWall(train.cpu_s, train.wall_s),
                                      "cores", 1};
}

// Per-layer probes every workload runs on its own model and documents.
void RunProbes(std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot,
               const std::vector<Document>& docs,
               const std::vector<Document>& train_docs,
               const std::string& corpus_path, MetricSet& layers) {
  ProbeRead(corpus_path, layers);
  ProbeModel(snapshot->model(), docs, layers);
  ProbeTrainStep(snapshot->model(), train_docs, layers);
  ProbeObs(layers);
  ProbeServeOverhead(snapshot, docs, layers);
}

// ---- pipeline_earnings ----------------------------------------------------

struct PipelineInputs {
  std::string train_path;
  std::string test_path;
  std::unique_ptr<fieldswap::CandidateScoringModel> candidate;
  Stage synth, write;
  double seconds = 0;
  uint64_t fingerprint = 0;
};

// Writes the corpora into `dir`.
PipelineInputs SetUpPipeline(const RunContext& ctx, const std::string& dir) {
  SpanRecorder::Scope setup(ctx.spans, "setup");
  PipelineInputs in;
  const fieldswap::DomainSpec spec = fieldswap::EarningsSpec();
  std::vector<Document> train, test;
  in.synth = TimeStage(ctx.spans, "synth.generate", [&] {
    train = fieldswap::GenerateCorpus(spec, kTrainDocs,
                                      kProtocolSeed, "earnings-train");
    test = fieldswap::GenerateCorpus(spec, kTestDocs,
                                     DeriveSeed(ctx.seed, "test"),
                                     "earnings-test");
  });
  in.train_path = dir + "/train.fsc";
  in.test_path = dir + "/test.fsc";
  in.write = TimeStage(ctx.spans, "doc.write", [&] {
    WriteNativeCorpus(train, in.train_path);
    WriteNativeCorpus(test, in.test_path);
  });
  const int64_t misses = CandidateCacheMisses();
  TimeStage(ctx.spans, "model.load_candidate", [&] {
    in.candidate = std::make_unique<fieldswap::CandidateScoringModel>(
        fieldswap::GetOrTrainCachedCandidateModel(ctx.candidate_cache));
  });
  if (CandidateCacheMisses() != misses) {
    FailCheck("the candidate-model cache did not load in set-up, so "
              "pre-training would have been timed as set-up");
  }
  in.fingerprint = FileFingerprint(in.train_path) * 31 +
                   FileFingerprint(in.test_path);
  in.seconds = setup.elapsed_s();
  return in;
}

struct PassResult {
  double seconds = 0;
  fieldswap::EvalResult eval;
  size_t phrases = 0;
  size_t pairs = 0;
  fieldswap::SwapStats swap_stats;
  size_t kept = 0;
  int train_steps = 0;
  Stage infer, swap, train, evaluate;
  std::unique_ptr<fieldswap::SequenceLabelingModel> model;
};

// One pass of the paper pipeline (Fig. 3), from opening the corpus files
// to the returned EvalResult.
PassResult RunPass(const PipelineInputs& in, SpanRecorder* spans) {
  SpanRecorder::Scope pass(spans, "pipeline.pass");
  PassResult r;
  const fieldswap::DomainSpec spec = fieldswap::EarningsSpec();
  const fieldswap::DomainSchema schema = spec.Schema();
  const fieldswap::ExperimentConfig protocol;

  std::unique_ptr<fieldswap::doc::CorpusReader> train_reader, test_reader;
  std::vector<Document> train_docs;
  TimeStage(spans, "doc.open", [&] {
    train_reader = OpenOrFail(in.train_path);
    test_reader = OpenOrFail(in.test_path);
  });
  TimeStage(spans, "doc.read", [&] { train_docs = ReadAll(*train_reader); });

  fieldswap::KeyPhraseConfig phrases;
  r.infer = TimeStage(spans, "core.infer_key_phrases", [&] {
    phrases = fieldswap::InferKeyPhrases(*in.candidate, train_docs, schema,
                                         fieldswap::KeyPhraseInferenceOptions());
  });
  for (const auto& [field, list] : phrases) r.phrases += list.size();

  std::vector<fieldswap::FieldPair> pairs;
  TimeStage(spans, "core.build_field_pairs", [&] {
    pairs = fieldswap::BuildFieldPairs(
        schema, fieldswap::MappingStrategy::kTypeToType, phrases);
  });
  r.pairs = pairs.size();

  std::vector<Document> synthetics;
  r.swap = TimeStage(spans, "core.swap", [&] {
    fieldswap::FieldSwapOptions options;
    options.max_synthetics = protocol.max_synthetics_for_training;
    synthetics = fieldswap::GenerateSyntheticDocuments(
        train_docs, phrases, pairs, options, &r.swap_stats);
  });
  r.kept = synthetics.size();

  r.model = std::make_unique<fieldswap::SequenceLabelingModel>(
      ModelConfig(), schema);
  r.train = TimeStage(spans, "model.train", [&] {
    fieldswap::TrainOptions options;
    options.total_steps =
        std::max(protocol.min_steps, protocol.steps_per_doc * kTrainDocs);
    options.seed = DeriveSeed(kProtocolSeed, "train-steps");
    fieldswap::doc::VectorCorpusReaderView synthetic_view(synthetics);
    r.train_steps = fieldswap::TrainSequenceModel(*r.model, *train_reader,
                                                  &synthetic_view, options)
                        .steps;
  });

  r.evaluate = TimeStage(spans, "eval.evaluate", [&] {
    r.eval = fieldswap::EvaluateModel(*r.model, *test_reader);
  });
  r.seconds = pass.elapsed_s();
  return r;
}

void CheckSamePass(const PassResult& a, const PassResult& b) {
  if (a.eval.macro_f1 != b.eval.macro_f1 ||
      a.eval.micro_f1 != b.eval.micro_f1) {
    FailCheck("macro/micro F1 differ between two passes of the same seed");
  }
  if (a.swap_stats.generated != b.swap_stats.generated || a.kept != b.kept) {
    FailCheck("synthetic counts differ between two passes of the same seed");
  }
  if (a.phrases != b.phrases || a.pairs != b.pairs) {
    FailCheck("inferred key phrases differ between two passes of the same seed");
  }
}

// ---- serve_tenants --------------------------------------------------------

struct ServeInputs {
  std::vector<Document> train_docs;
  std::vector<Document> docs;  // served documents, read back from disk
  std::string docs_path;
  std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot;
  Payloads expected;
  double macro_f1 = 0;
  int train_steps = 0;
  Stage synth, write, train;
  double seconds = 0;
};

// Generates the training set and the kTenantDocs documents to serve, stages
// the pool through a native corpus file, trains the serve model, builds
// its snapshot and precomputes every expected payload.
ServeInputs SetUpServe(const RunContext& ctx) {
  SpanRecorder::Scope setup(ctx.spans, "setup");
  ServeInputs in;
  const fieldswap::DomainSpec spec = fieldswap::EarningsSpec();
  std::vector<Document> pool;
  in.synth = TimeStage(ctx.spans, "synth.generate", [&] {
    in.train_docs = fieldswap::GenerateCorpus(spec, kTrainDocs, kProtocolSeed,
                                              "earnings-train");
    pool = fieldswap::GenerateCorpus(spec, kTenantDocs,
                                     DeriveSeed(kProtocolSeed, "serve-pool"),
                                     "earnings-serve");
  });
  in.docs_path = ctx.run_dir + "/serve.fsc";
  in.write = TimeStage(ctx.spans, "doc.write",
                       [&] { WriteNativeCorpus(pool, in.docs_path); });
  TimeStage(ctx.spans, "doc.read",
            [&] { in.docs = ReadAll(*OpenOrFail(in.docs_path)); });

  fieldswap::SequenceLabelingModel model(ModelConfig(), spec.Schema());
  in.train = TimeStage(ctx.spans, "model.train", [&] {
    fieldswap::TrainOptions options;
    options.total_steps = kServeTrainSteps;
    options.seed = DeriveSeed(kProtocolSeed, "train-steps");
    in.train_steps =
        fieldswap::TrainSequenceModel(model, in.train_docs, {}, options).steps;
  });
  TimeStage(ctx.spans, "serve.snapshot", [&] {
    in.snapshot = fieldswap::serve::MakeSnapshot(std::move(model), "serve");
  });
  TimeStage(ctx.spans, "serve.expected_payloads", [&] {
    in.expected = PredictAll(in.snapshot->model(), in.docs);
  });
  in.macro_f1 = MacroF1(in.docs, in.expected);
  in.seconds = setup.elapsed_s();
  return in;
}

// Set-up repetitions after the first run at spread-out points of the run
// (`Again` is called between stages), so the median set-up time samples
// the machine across the whole run rather than in one burst at its start.
// Each repetition runs on the full pool and restores the caller's thread
// count.
class SetupRepeats {
 public:
  SetupRepeats(const RunContext& ctx, int reps, std::function<void()> once)
      : cpus_(ctx.cpus), left_(SetupReps(ctx, reps) - 1), once_(std::move(once)) {}
  void Again() {
    if (left_ <= 0) return;
    --left_;
    const int threads = fieldswap::par::Threads();
    fieldswap::par::SetThreads(cpus_);
    once_();
    fieldswap::par::SetThreads(threads);
  }
  void Finish() {
    while (left_ > 0) Again();
  }

 private:
  int cpus_;
  int left_;
  std::function<void()> once_;
};

// serve_tenants' set-up, timed and checked on every repetition.
struct ServeSetup {
  explicit ServeSetup(const RunContext& ctx)
      : in(SetUpServe(ctx)),
        setup_s{in.seconds},
        train_s{in.train.wall_s},
        repeats(ctx, kServeSetupReps, [this, &ctx] {
          ServeInputs again = SetUpServe(ctx);
          if (again.expected != in.expected || again.macro_f1 != in.macro_f1) {
            FailCheck("two set-ups of the same seed produced different payloads");
          }
          setup_s.push_back(again.seconds);
          train_s.push_back(again.train.wall_s);
        }) {}

  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;

  void AddMetrics(RunOutput& out) {
    repeats.Finish();
    out.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
    out.e2e["time_to_model_s"] = {Median(train_s), "s", train_s.size()};
    out.e2e["macro_f1"] = {in.macro_f1, "ratio", in.docs.size()};
    AddCorpusMetrics(static_cast<double>(in.train_docs.size() + in.docs.size()),
                     in.synth, in.write, out.layers);
    AddTrainMetrics(in.train, in.train_steps, out.layers);
  }

  ServeInputs in;  // the first repetition's inputs are the ones served
  std::vector<double> setup_s, train_s;
  SetupRepeats repeats;
};

}  // namespace

void RunPipelineEarnings(const RunContext& ctx, RunOutput& out) {
  fieldswap::par::SetThreads(ctx.cpus);
  PipelineInputs in = SetUpPipeline(ctx, ctx.run_dir);
  std::vector<double> setup_s{in.seconds};
  const std::string again_dir = ctx.run_dir + "/again";
  std::filesystem::create_directories(again_dir);
  SetupRepeats repeats(ctx, kPipelineSetupReps, [&] {
    PipelineInputs again = SetUpPipeline(ctx, again_dir);
    if (again.fingerprint != in.fingerprint) {
      FailCheck("two set-ups of the same seed wrote different corpora");
    }
    setup_s.push_back(again.seconds);
  });

  // Only the last pass records spans in the traced run; against the
  // untraced passes before it, it gives the benchmark's own tracing cost.
  std::vector<PassResult> passes;
  for (int p = 0; p < kPasses; ++p) {
    SpanRecorder* spans = p == kPasses - 1 ? ctx.spans : nullptr;
    passes.push_back(RunPass(in, spans));
    if (p > 0) CheckSamePass(passes[0], passes.back());
    repeats.Again();
  }
  const PassResult& last = passes.back();

  // Serve the trained model on the held-out documents.
  std::vector<Document> test_docs = ReadAll(*OpenOrFail(in.test_path));
  auto snapshot =
      fieldswap::serve::MakeSnapshot(std::move(*passes.back().model), "pipeline");
  Payloads expected = PredictAll(snapshot->model(), test_docs);
  if (MacroF1(test_docs, expected) != last.eval.macro_f1) {
    FailCheck("EvaluateModel's macro F1 differs from scoring direct Predict");
  }
  fieldswap::par::SetThreads(kServeThreads);
  UniqueDriver driver(snapshot, test_docs, expected);
  ServeResult served = RunServePhase(
      ctx, driver,
      MakeServePlan(kUniqueRefRate, false, kUniqueSaturationRequests,
                    ctx.seconds),
      DeriveSeed(ctx.seed, "serve"), [&] { repeats.Again(); });
  repeats.Finish();

  std::vector<double> pass_s;
  for (const PassResult& p : passes) pass_s.push_back(p.seconds);
  out.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  out.e2e["time_to_model_s"] = {Median(pass_s), "s", pass_s.size()};
  out.e2e["macro_f1"] = {last.eval.macro_f1, "ratio",
                         static_cast<size_t>(kTestDocs)};
  out.attempted += passes.size();

  MetricSet& layers = out.layers;
  AddCorpusMetrics(kTrainDocs + kTestDocs, in.synth, in.write, layers);
  const double generated = static_cast<double>(last.swap_stats.generated);
  layers["core.infer_key_phrases_ms"] = {last.infer.wall_s * 1e3, "ms", 1};
  layers["core.phrases_inferred"] = {static_cast<double>(last.phrases), "phrases", 1};
  layers["core.field_pairs"] = {static_cast<double>(last.pairs), "pairs", 1};
  layers["core.swap_ms"] = {last.swap.wall_s * 1e3, "ms", 1};
  layers["core.swap_us_per_synthetic"] = {
      last.swap.wall_s * 1e6 / std::max(1.0, generated), "us",
      static_cast<size_t>(generated)};
  layers["core.synthetics_generated"] = {generated, "docs", 1};
  layers["core.swap_applied_ratio"] = {
      generated / std::max(1.0, generated + static_cast<double>(
                                                last.swap_stats.discarded_unchanged)),
      "ratio", 1};
  layers["core.swap_kept_ratio"] = {
      static_cast<double>(last.kept) / std::max(1.0, generated), "ratio", 1};
  AddTrainMetrics(last.train, last.train_steps, layers);
  layers["eval.docs_per_s"] = {kTestDocs / last.evaluate.wall_s, "docs/s",
                               static_cast<size_t>(kTestDocs)};
  layers["par.cpu_per_wall.swap"] = {CpuPerWall(last.swap.cpu_s, last.swap.wall_s),
                                     "cores", 1};
  layers["par.cpu_per_wall.eval"] = {
      CpuPerWall(last.evaluate.cpu_s, last.evaluate.wall_s), "cores", 1};

  AddServeMetrics(served, driver, out.e2e, layers);
  out.attempted += served.ref.attempted;
  out.failed += served.ref.failed;
  if (ctx.trace) {
    layers["obs.bench_trace_overhead_pct"] = {
        (passes.back().seconds / passes.front().seconds - 1) * 100, "%",
        passes.size()};
    std::vector<Document> train_docs = ReadAll(*OpenOrFail(in.train_path));
    RunProbes(snapshot, test_docs, train_docs, in.test_path, layers);
  }
}

void RunServeTenants(const RunContext& ctx, RunOutput& out) {
  fieldswap::par::SetThreads(ctx.cpus);
  const ServePlan plan = MakeServePlan(
      kTenantRefRate, true, kTenantSaturationRequests, ctx.seconds);
  ServeSetup setup(ctx);
  const ServeInputs& in = setup.in;

  auto registry = std::make_shared<fieldswap::serve::ModelRegistry>();
  std::vector<std::string> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back("tenant-" + std::to_string(t));
    registry->Publish(tenants.back(), in.snapshot);
  }
  std::mt19937_64 rng(DeriveSeed(ctx.seed, "tenant-stream"));
  ZipfSampler zipf(in.docs.size(), kZipfExponent);
  std::vector<TenantDriver::Pick> stream(ReferenceRequests(plan, ctx.trace));
  for (TenantDriver::Pick& pick : stream) {
    pick.tenant = static_cast<int>(rng() % kTenants);
    pick.doc = zipf.Sample(rng);
  }

  fieldswap::par::SetThreads(kServeThreads);
  TenantDriver driver(registry, tenants, in.docs, in.expected,
                      std::move(stream));
  ServeResult result = RunServePhase(ctx, driver, plan,
                                     DeriveSeed(ctx.seed, "serve"),
                                     [&] { setup.repeats.Again(); });
  setup.AddMetrics(out);
  AddServeMetrics(result, driver, out.e2e, out.layers);
  out.attempted += result.ref.attempted;
  out.failed += result.ref.failed;
  if (ctx.trace) {
    RunProbes(in.snapshot, in.docs, in.train_docs, in.docs_path, out.layers);
  }
}

}  // namespace e2ebench
