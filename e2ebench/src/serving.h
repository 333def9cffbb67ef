#ifndef E2EBENCH_SERVING_H_
#define E2EBENCH_SERVING_H_

// The serving phase shared by every workload: a warm-up window, then
// rounds of an open-loop reference-rate window (latency) and a closed-loop
// saturation window (goodput). Requests reach the program only through its public servers;
// every served payload is compared with the direct-Predict payload
// computed in set-up.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"

namespace e2ebench {

using Payloads = std::vector<std::vector<fieldswap::EntitySpan>>;

// A server plus the request stream fed to it. Request i of a window is
// stream position offset + i. Submit and Wait run on the generator's one
// thread; per-window tallies are touched by Wait only.
class ServeDriver : public OpenLoopTarget {
 public:
  struct WindowStats {
    size_t ok = 0;
    size_t result_cache_hits = 0;
    size_t encoded_cache_hits = 0;
    size_t mismatches = 0;
    std::vector<double> batches_waited;  // multi-tenant server only
    std::vector<int> tenant;  // per request of the window; -1 if none
  };

  void BeginWindow(size_t offset);
  const WindowStats& window() const { return window_; }
  // Rejections by status name, across every window so far.
  const std::map<std::string, int64_t>& rejected() const { return rejected_; }
  virtual std::string batch_size_histogram() const = 0;
  virtual int num_tenants() const { return 0; }

 protected:
  Reply Record(const fieldswap::serve::ExtractResponse& response,
               const std::vector<fieldswap::EntitySpan>& expected,
               int tenant);
  size_t offset_ = 0;

 private:
  WindowStats window_;
  std::map<std::string, int64_t> rejected_;
};

// Single-tenant ExtractionServer (default options) over a document pool
// visited in order; a pool larger than any cache means no request can hit.
class UniqueDriver : public ServeDriver {
 public:
  UniqueDriver(std::shared_ptr<const fieldswap::serve::ModelSnapshot> snapshot,
               const std::vector<fieldswap::Document>& pool,
               const Payloads& expected);
  int64_t Submit(size_t request) override;
  Reply Wait(int64_t ticket, size_t request) override;
  int QueueDepth() const override;
  std::string batch_size_histogram() const override {
    return "fieldswap.serve.batch_size";
  }

 private:
  fieldswap::serve::ExtractionServer server_;
  const std::vector<fieldswap::Document>& pool_;
  const Payloads& expected_;
};

// MultiTenantServer (default options) over a registry in which every
// tenant's active version is the same snapshot. `stream` gives each
// stream position's (tenant, document); documents are resubmitted under
// fresh ids.
class TenantDriver : public ServeDriver {
 public:
  struct Pick {
    int tenant = 0;
    size_t doc = 0;
  };
  TenantDriver(std::shared_ptr<fieldswap::serve::ModelRegistry> registry,
               std::vector<std::string> tenants,
               const std::vector<fieldswap::Document>& docs,
               const Payloads& expected, std::vector<Pick> stream);
  void Prepare(size_t request) override;
  int64_t Submit(size_t request) override;
  Reply Wait(int64_t ticket, size_t request) override;
  int QueueDepth() const override;
  std::string batch_size_histogram() const override {
    return "fieldswap.serve.tenant.batch_size";
  }
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }

 private:
  const Pick& PickAt(size_t request) const;
  fieldswap::serve::MultiTenantServer server_;
  std::vector<std::string> tenants_;
  const std::vector<fieldswap::Document>& docs_;
  const Payloads& expected_;
  std::vector<Pick> stream_;
  fieldswap::Document pending_;  // next request, built by Prepare
};

// Rates, limits and window sizes of one workload's serving phase.
struct ServePlan {
  int rounds = 0;  // (reference window, saturation window) pairs
  double ref_rate = 0;  // requests/s of the reference windows
  bool bursty = false;  // on/off arrivals instead of Poisson
  size_t saturation_requests = 0;  // per saturation window
};

// A plan whose rounds fill about `seconds` of serving.
ServePlan MakeServePlan(double ref_rate, bool bursty,
                        size_t saturation_requests, int seconds);

// Requests the warm-up and reference windows submit; a request stream at
// least this long gives each of them its own position. Saturation windows
// and the SLO search wrap around the stream.
size_t ReferenceRequests(const ServePlan& plan, bool trace);

struct ServeResult {
  // Per-round reference-window latency and saturation goodput.
  std::vector<double> round_p50_ms;
  std::vector<double> round_goodput_rps;
  // Every reference window of the run, concatenated.
  OpenLoopResult ref;
  ServeDriver::WindowStats ref_stats;
  double batch_size_mean = 0;
  double saturation_cpu_per_wall = 0;
  // Traced run only: the SLO goodput search, and how much higher the
  // median round p50 is with spans recorded than in each round's untraced
  // twin window.
  GoodputResult slo;
  double trace_overhead_pct = 0;
};

// Runs the warm-up and the rounds of (reference window, saturation window)
// against `driver`, calling `after_round` after about eight evenly spaced
// rounds; the traced run adds the SLO goodput search. Fails the run if any
// served payload differs from the expected one.
ServeResult RunServePhase(const RunContext& ctx, ServeDriver& driver,
                          const ServePlan& plan, uint64_t seed,
                          const std::function<void()>& after_round);

// Adds the serving phase's end-to-end metrics (latency, goodput, ok share)
// and its per-layer metrics to the sets.
void AddServeMetrics(const ServeResult& result, const ServeDriver& driver,
                     MetricSet& e2e, MetricSet& layers);

}  // namespace e2ebench

#endif  // E2EBENCH_SERVING_H_
