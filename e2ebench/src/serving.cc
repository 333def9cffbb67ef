#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace e2ebench {
namespace {

using fieldswap::serve::ExtractResponse;
using fieldswap::serve::ServeStatus;

// On/off burst shape of the bursty arrivals (mean on and off periods).
constexpr double kBurstOnS = 0.05;
constexpr double kBurstOffS = 0.05;
// A window's backlog counts as growing when its last quarter queues this
// many more requests on average than its first (one default max_batch).
constexpr double kQueueGrowthSlack = 16;
// Closed-loop requests before the first round.
constexpr size_t kWarmupRequests = 2000;
// The serving phase alternates a short reference window and a short
// saturation window (nominally kSaturationSeconds long) for --seconds.
constexpr double kSaturationSeconds = 0.05;
// The end-to-end latency and goodput come from the fastest rounds: the 5th
// percentile of the round p50s and the 95th of the round goodputs. On a
// shared host other machines' load slows the serving path by up to a
// factor of two for seconds at a time, and never speeds it up; short
// rounds catch the quiet spells between.
constexpr double kFastRoundPercentile = 5;
// Requests per reference window, and per step of the SLO goodput search
// (which needs a thousand for its p99).
constexpr size_t kRefRequests = 100;
constexpr size_t kSloStepRequests = 1000;
// RunServePhase calls `after_round` after this many evenly spaced rounds.
constexpr int kAfterRoundCalls = 8;
// Saturation windows keep this many requests submitted but uncollected:
// the default admission capacity (queue_capacity, and each tenant's
// quota), so the server always has a full queue and sheds nothing.
constexpr size_t kSaturationWindow = 64;
// SLO goodput search (traced run only): the highest rate with p99 under
// kP99LimitMs (see GoodputCriteria). Bracket by doubling/halving from the
// reference rate within [ref / 8, ref * 8], then bisect (see SearchGoodput).
constexpr double kP99LimitMs = 50;
constexpr double kSearchSpan = 8;

// Rejection statuses reported one by one; anything else lands in "other".
const char* const kRejectedNames[] = {"queue_full", "deadline", "shutdown",
                                      "quota", "unknown_tenant"};

std::string RejectedKey(ServeStatus status) {
  switch (status) {
    case ServeStatus::kRejectedQueueFull: return "queue_full";
    case ServeStatus::kRejectedDeadline: return "deadline";
    case ServeStatus::kRejectedShutdown: return "shutdown";
    case ServeStatus::kRejectedQuota: return "quota";
    case ServeStatus::kRejectedUnknownTenant: return "unknown_tenant";
    default: return "other";
  }
}

// (count, sum) of one of the program's histograms, read through the
// public metrics registry.
std::pair<double, double> HistogramTotals(const std::string& name) {
  fieldswap::obs::MetricsSnapshot snap =
      fieldswap::obs::GlobalMetrics().Snapshot();
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) return {0, 0};
  return {static_cast<double>(it->second.count), it->second.sum};
}

StepOutcome Outcome(const OpenLoopResult& window, double rate) {
  StepOutcome step;
  step.rate = rate;
  step.p99_ms = Percentile(window.latency_ms, 99);
  step.failed_frac = window.FailedFrac();
  step.queue_growing = window.QueueGrowing(kQueueGrowthSlack);
  return step;
}

template <typename T>
void Extend(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

void Append(OpenLoopResult& into, const OpenLoopResult& window) {
  Extend(into.latency_ms, window.latency_ms);
  Extend(into.lag_ms, window.lag_ms);
  Extend(into.queue_depth, window.queue_depth);
  into.attempted += window.attempted;
  into.failed += window.failed;
  into.wall_s += window.wall_s;
  into.cpu_s += window.cpu_s;
}

void Append(ServeDriver::WindowStats& into,
            const ServeDriver::WindowStats& window) {
  into.ok += window.ok;
  into.result_cache_hits += window.result_cache_hits;
  into.encoded_cache_hits += window.encoded_cache_hits;
  into.mismatches += window.mismatches;
  Extend(into.batches_waited, window.batches_waited);
  Extend(into.tenant, window.tenant);
}

}  // namespace

void ServeDriver::BeginWindow(size_t offset) {
  offset_ = offset;
  window_ = WindowStats();
}

OpenLoopTarget::Reply ServeDriver::Record(
    const ExtractResponse& response,
    const std::vector<fieldswap::EntitySpan>& expected, int tenant) {
  Reply reply;
  reply.ok = response.status == ServeStatus::kOk;
  reply.server_latency_ms = response.latency_ms;
  window_.tenant.push_back(tenant);
  if (!reply.ok) {
    ++rejected_[RejectedKey(response.status)];
    return reply;
  }
  ++window_.ok;
  if (response.cache_hit) ++window_.result_cache_hits;
  if (response.encoded_cache_hit) ++window_.encoded_cache_hits;
  if (response.spans != expected) ++window_.mismatches;
  // Only MultiTenantServer reports how many batches a request waited.
  if (tenant >= 0) {
    window_.batches_waited.push_back(
        static_cast<double>(response.batches_waited));
  }
  return reply;
}

UniqueDriver::UniqueDriver(
    std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot,
    const std::vector<fieldswap::Document>& pool, const Payloads& expected)
    : server_(std::move(snapshot)), pool_(pool), expected_(expected) {}

int64_t UniqueDriver::Submit(size_t request) {
  return server_.Submit(pool_[(offset_ + request) % pool_.size()]);
}

OpenLoopTarget::Reply UniqueDriver::Wait(int64_t ticket, size_t request) {
  return Record(server_.Wait(ticket),
                expected_[(offset_ + request) % pool_.size()], -1);
}

int UniqueDriver::QueueDepth() const { return server_.queue_depth(); }

TenantDriver::TenantDriver(
    std::shared_ptr<fieldswap::serve::ModelRegistry> registry,
    std::vector<std::string> tenants,
    const std::vector<fieldswap::Document>& docs, const Payloads& expected,
    std::vector<Pick> stream)
    : server_(std::move(registry)),
      tenants_(std::move(tenants)),
      docs_(docs),
      expected_(expected),
      stream_(std::move(stream)) {}

const TenantDriver::Pick& TenantDriver::PickAt(size_t request) const {
  return stream_[(offset_ + request) % stream_.size()];
}

void TenantDriver::Prepare(size_t request) {
  pending_ = docs_[PickAt(request).doc];
  pending_.set_id("req-" + std::to_string(offset_ + request));
}

int64_t TenantDriver::Submit(size_t request) {
  return server_.Submit(tenants_[PickAt(request).tenant], pending_);
}

OpenLoopTarget::Reply TenantDriver::Wait(int64_t ticket, size_t request) {
  const Pick& pick = PickAt(request);
  return Record(server_.Wait(ticket), expected_[pick.doc], pick.tenant);
}

int TenantDriver::QueueDepth() const {
  int depth = 0;
  for (const std::string& tenant : tenants_) {
    depth += server_.queue_depth(tenant);
  }
  return depth;
}

ServePlan MakeServePlan(double ref_rate, bool bursty,
                        size_t saturation_requests, int seconds) {
  ServePlan plan;
  const double round_s = kRefRequests / ref_rate + kSaturationSeconds;
  plan.rounds = std::max(4, static_cast<int>(seconds / round_s));
  plan.ref_rate = ref_rate;
  plan.bursty = bursty;
  plan.saturation_requests = saturation_requests;
  return plan;
}

size_t ReferenceRequests(const ServePlan& plan, bool trace) {
  return kWarmupRequests + plan.rounds * kRefRequests * (trace ? 2 : 1);
}

ServeResult RunServePhase(const RunContext& ctx, ServeDriver& driver,
                          const ServePlan& plan, uint64_t seed,
                          const std::function<void()>& after_round) {
  size_t offset = 0;
  auto check_payloads = [&](const std::string& label, size_t count) {
    if (driver.window().mismatches > 0) {
      FailCheck(std::to_string(driver.window().mismatches) + " of " +
                std::to_string(count) + " served payloads in window '" +
                label + "' differ from direct Predict on the same snapshot");
    }
  };
  auto run_window = [&](const std::string& label, double rate, size_t count,
                        SpanRecorder* spans) {
    uint64_t window_seed = DeriveSeed(seed, label);
    std::vector<double> due =
        plan.bursty
            ? OnOffArrivals(rate, count, kBurstOnS, kBurstOffS, window_seed)
            : PoissonArrivals(rate, count, window_seed);
    driver.BeginWindow(offset);
    OpenLoopResult window = RunOpenLoop(due, driver, spans, offset);
    offset += count;
    check_payloads(label, count);
    return window;
  };

  ServeResult result;
  // Warm-up at saturation: fills the caches to their steady state (a
  // cold result cache would make the first round's hit ratio low).
  driver.BeginWindow(offset);
  RunClosedLoop(kWarmupRequests, kSaturationWindow, driver);
  offset += kWarmupRequests;
  check_payloads("warmup", kWarmupRequests);
  const std::string histogram = driver.batch_size_histogram();
  double batches = 0, batched_docs = 0, saturation_cpu = 0, saturation_wall = 0;
  std::vector<double> untraced_p50_ms;
  const int after_every = std::max(1, plan.rounds / kAfterRoundCalls);
  for (int round = 0; round < plan.rounds; ++round) {
    const std::string tag = std::to_string(round);
    if (ctx.trace) {
      // The same schedule untraced first: the pair measures the cost of
      // the benchmark's own spans.
      OpenLoopResult untraced =
          run_window("ref-" + tag, plan.ref_rate, kRefRequests, nullptr);
      untraced_p50_ms.push_back(Percentile(untraced.latency_ms, 50));
    }
    auto [count0, sum0] = HistogramTotals(histogram);
    OpenLoopResult ref =
        run_window("ref-" + tag, plan.ref_rate, kRefRequests, ctx.spans);
    auto [count1, sum1] = HistogramTotals(histogram);
    batches += count1 - count0;
    batched_docs += sum1 - sum0;
    result.round_p50_ms.push_back(Percentile(ref.latency_ms, 50));
    Append(result.ref, ref);
    Append(result.ref_stats, driver.window());

    driver.BeginWindow(offset);
    OpenLoopResult saturated =
        RunClosedLoop(plan.saturation_requests, kSaturationWindow, driver);
    offset += plan.saturation_requests;
    check_payloads("saturation-" + tag, plan.saturation_requests);
    result.round_goodput_rps.push_back(
        static_cast<double>(saturated.attempted - saturated.failed) /
        saturated.wall_s);
    saturation_cpu += saturated.cpu_s;
    saturation_wall += saturated.wall_s;
    if ((round + 1) % after_every == 0) after_round();
  }
  std::printf("# serve rounds, p50 ms:");
  for (double p50 : result.round_p50_ms) std::printf(" %.4f", p50);
  std::printf("\n# serve rounds, goodput req/s:");
  for (double rps : result.round_goodput_rps) std::printf(" %.0f", rps);
  std::printf("\n");
  result.batch_size_mean = batches > 0 ? batched_docs / batches : 0;
  result.saturation_cpu_per_wall = saturation_cpu / saturation_wall;
  if (ctx.trace) {
    result.trace_overhead_pct =
        (Median(result.round_p50_ms) / Median(untraced_p50_ms) - 1) * 100;
    // The SLO ladder search is informative but too sensitive to scheduler
    // noise for an end-to-end bound, so only the traced run pays for it.
    GoodputSearch search;
    search.start = plan.ref_rate;
    search.min_rate = plan.ref_rate / kSearchSpan;
    search.max_rate = plan.ref_rate * kSearchSpan;
    GoodputCriteria criteria;
    criteria.p99_limit_ms = kP99LimitMs;
    int step = 0;
    result.slo = SearchGoodput(search, criteria, [&](double rate) {
      std::string label = "step-" + std::to_string(step++);
      return Outcome(run_window(label, rate, kSloStepRequests, ctx.spans),
                     rate);
    });
  }
  return result;
}

void AddServeMetrics(const ServeResult& result, const ServeDriver& driver,
                     MetricSet& e2e, MetricSet& layers) {
  const OpenLoopResult& ref = result.ref;
  const size_t n = ref.latency_ms.size();
  if (TailPercentile(n) < 99) {
    FailCheck("reference windows have " + std::to_string(n) +
              " requests; p99 needs at least 1000");
  }
  const size_t rounds = result.round_p50_ms.size();
  e2e["latency_p50_ms"] = {
      Percentile(result.round_p50_ms, kFastRoundPercentile), "ms", n};
  e2e["goodput_rps"] = {
      Percentile(result.round_goodput_rps, 100 - kFastRoundPercentile),
      "req/s", rounds};
  e2e["ok_frac"] = {1.0 - ref.FailedFrac(), "ratio", n};
  layers["serve.latency_p99_ms"] = {Percentile(ref.latency_ms, 99), "ms", n};
  layers["serve.slo_goodput_rps"] = {result.slo.goodput, "req/s",
                                     result.slo.steps.size()};
  layers["obs.bench_trace_overhead_pct"] = {result.trace_overhead_pct, "%",
                                            rounds};

  const ServeDriver::WindowStats& stats = result.ref_stats;
  const double ok = std::max<double>(1, static_cast<double>(stats.ok));
  layers["serve.batch_size_mean"] = {result.batch_size_mean, "docs", n};
  if (!stats.batches_waited.empty()) {
    layers["serve.batches_waited_p99"] = {
        Percentile(stats.batches_waited, 99), "batches",
        stats.batches_waited.size()};
  }
  layers["serve.result_cache_hit_ratio"] = {
      static_cast<double>(stats.result_cache_hits) / ok, "ratio", stats.ok};
  layers["serve.encoded_cache_hit_ratio"] = {
      static_cast<double>(stats.encoded_cache_hits) / ok, "ratio", stats.ok};
  layers["serve.queue_depth_max"] = {
      static_cast<double>(
          *std::max_element(ref.queue_depth.begin(), ref.queue_depth.end())),
      "requests", n};
  for (const char* name : kRejectedNames) {
    layers[std::string("serve.rejected.") + name] = {0, "count", 1};
  }
  layers["serve.rejected.other"] = {0, "count", 1};
  for (const auto& [name, count] : driver.rejected()) {
    layers["serve.rejected." + name].value = static_cast<double>(count);
  }

  // Per-tenant p99 over the reference window; 1 for a single tenant.
  double spread = 1;
  if (driver.num_tenants() > 1) {
    std::vector<std::vector<double>> per_tenant(
        static_cast<size_t>(driver.num_tenants()));
    for (size_t i = 0; i < n; ++i) {
      per_tenant[static_cast<size_t>(stats.tenant[i])].push_back(
          ref.latency_ms[i]);
    }
    double lo = std::numeric_limits<double>::infinity(), hi = 0;
    for (const auto& latencies : per_tenant) {
      double p99 = Percentile(latencies, 99);
      lo = std::min(lo, p99);
      hi = std::max(hi, p99);
    }
    spread = hi / lo;
  }
  layers["serve.tenant_p99_spread"] = {spread, "ratio",
                                       static_cast<size_t>(driver.num_tenants())};

  layers["par.cpu_per_wall.serve_ref"] = {
      ref.wall_s > 0 ? ref.cpu_s / ref.wall_s : 0, "cores", 1};
  layers["par.cpu_per_wall.serve_saturation"] = {
      result.saturation_cpu_per_wall, "cores", 1};
  layers["loadgen.lag_p99_ms"] = {Percentile(ref.lag_ms, 99), "ms", n};
}

}  // namespace e2ebench
