#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

// Load generation and latency arithmetic of the end-to-end benchmark:
// seeded arrival schedules, a Zipf sampler, the percentile rule, an
// open-loop driver that times every request from its due time, and the
// goodput search over a rate ladder. Nothing here knows about FieldSwap;
// the serving workloads plug a server in through OpenLoopTarget.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <vector>

namespace e2ebench {

class SpanRecorder;

// ---- Arrival schedules ----------------------------------------------------

// Due times (seconds from the start of a window) of `count` requests with
// exponential inter-arrival gaps at `rate` requests per second.
std::vector<double> PoissonArrivals(double rate, size_t count, uint64_t seed);

// Bursty arrivals with the same long-run mean `rate`: the source alternates
// between "on" periods (exponential, mean `on_s`) during which it emits
// Poisson arrivals at rate * (on_s + off_s) / on_s, and silent "off"
// periods (exponential, mean `off_s`).
std::vector<double> OnOffArrivals(double rate, size_t count, double on_s,
                                  double off_s, uint64_t seed);

// Samples ranks in [0, n) with P(k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- Percentiles ----------------------------------------------------------

// Nearest-rank percentile (p in (0, 100]) of `values`; +inf entries (failed
// requests) sort last. NaN for an empty input.
double Percentile(std::vector<double> values, double p);

// The highest of 99.9 / 99 / 90 / 50 that still has at least ten samples
// beyond it out of `n` (0 when n < 20, where not even the median qualifies).
double TailPercentile(size_t n);

// ---- Open loop ------------------------------------------------------------

// What the open-loop driver needs from a server. Submit never blocks on
// service (it may briefly take a lock); Wait blocks until the request's
// response is ready and, for leader/follower servers, drives the batches.
struct OpenLoopTarget {
  struct Reply {
    bool ok = false;
    double server_latency_ms = 0;  // submit-to-completion, server clock
  };
  virtual ~OpenLoopTarget() = default;
  // Called right after the previous request is submitted, before waiting
  // for this one's due time: client-side work that must not count as
  // latency.
  virtual void Prepare(size_t request) { (void)request; }
  virtual int64_t Submit(size_t request) = 0;
  virtual Reply Wait(int64_t ticket, size_t request) = 0;
  virtual int QueueDepth() const = 0;
};

struct OpenLoopResult {
  // Per request, in schedule order: due-time latency in ms, +inf if failed.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  // submit call start minus due time
  std::vector<int> queue_depth;  // sampled right after each submit
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0;
  // Process CPU seconds over the window, less what the generator's own
  // threads spent outside the target.
  double cpu_s = 0;

  double FailedFrac() const;
  // True when the backlog grew over the window: the mean sampled queue
  // depth of the last quarter of requests exceeds that of the first
  // quarter by more than `slack` requests.
  bool QueueGrowing(double slack) const;
};

// Steady-clock time in seconds; every span and due time uses this clock.
double MonotonicSeconds();
// CPU seconds consumed by the whole process so far.
double ProcessCpuSeconds();

// Runs one open-loop window on the calling thread: it submits each request
// once it is due and collects responses in admission order, its Waits
// leading the server's batches. Request i's latency is (submit start - due)
// plus the server's submit-to-completion time, so a stall in the generator
// or the server inflates every request due during it. With `spans`
// non-null, each request records a root span from due time to completion
// with submit and wait children, all tagged with `request_base + i`.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s,
                           OpenLoopTarget& target, SpanRecorder* spans,
                           uint64_t request_base);

// Closed-loop saturation: submits `count` requests, keeping `window` of
// them submitted but not yet collected, so the server always has work
// queued but never more than `window` (at most its admission capacity, so
// nothing is shed). Each request is due when submitted.
OpenLoopResult RunClosedLoop(size_t count, size_t window,
                             OpenLoopTarget& target);

// ---- Goodput search -------------------------------------------------------

struct StepOutcome {
  double rate = 0;
  double p99_ms = std::numeric_limits<double>::infinity();
  double failed_frac = 1;
  bool queue_growing = true;
};

// A rate passes when its p99 is within the limit, at most 1% of its
// requests failed, and its queue is not growing.
constexpr double kGoodputMaxFailedFrac = 0.01;
// Log-rate bisections after the bracket is found.
constexpr int kGoodputBisections = 5;

struct GoodputCriteria {
  double p99_limit_ms = 0;
  bool Passes(const StepOutcome& step) const {
    return step.p99_ms <= p99_limit_ms &&
           step.failed_frac <= kGoodputMaxFailedFrac && !step.queue_growing;
  }
};

// The ladder is the geometric grid start * 2^(k / 2^kGoodputBisections).
// The search brackets the knee by doubling (or halving) from `start`, then
// bisects the bracket in log-rate kGoodputBisections times. Returns the
// highest passing rate it visited, or 0 when even `min_rate` fails.
struct GoodputSearch {
  double start = 0;
  double min_rate = 0;
  double max_rate = 0;
};
struct GoodputResult {
  double goodput = 0;
  std::vector<StepOutcome> steps;  // in visiting order
};
GoodputResult SearchGoodput(
    const GoodputSearch& search, const GoodputCriteria& criteria,
    const std::function<StepOutcome(double rate)>& measure);

}  // namespace e2ebench

#endif  // E2EBENCH_LOADGEN_H_
