#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "spans.h"

namespace e2ebench {
namespace {

// Uniform double in [0, 1) from the top 53 bits: the same sequence on every
// platform, unlike the std:: distributions.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double Exponential(std::mt19937_64& rng, double mean) {
  return -std::log1p(-Uniform(rng)) * mean;
}

// Spin-loop hint: lets an SMT sibling use the core while the generator
// waits for a due time.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double Mean(const std::vector<int>& values, size_t begin, size_t end) {
  if (end <= begin) return 0;
  double sum = 0;
  for (size_t i = begin; i < end; ++i) sum += values[i];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

std::vector<double> PoissonArrivals(double rate, size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> due;
  due.reserve(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += Exponential(rng, 1.0 / rate);
    due.push_back(t);
  }
  return due;
}

std::vector<double> OnOffArrivals(double rate, size_t count, double on_s,
                                  double off_s, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const double burst_rate = rate * (on_s + off_s) / on_s;
  std::vector<double> due;
  due.reserve(count);
  double t = 0;
  double on_end = Exponential(rng, on_s);
  while (due.size() < count) {
    double gap = Exponential(rng, 1.0 / burst_rate);
    if (t + gap <= on_end) {
      t += gap;
      due.push_back(t);
    } else {
      // Memoryless: the next arrival restarts at the next on period.
      t = on_end + Exponential(rng, off_s);
      on_end = t + Exponential(rng, on_s);
    }
  }
  return due;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(std::mt19937_64& rng) const {
  double u = Uniform(rng);
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailPercentile(size_t n) {
  // Per-mille levels keep the rank arithmetic exact.
  for (int per_mille : {999, 990, 900, 500}) {
    size_t rank = (n * static_cast<size_t>(per_mille) + 999) / 1000;
    if (n - rank >= 10) return per_mille / 10.0;
  }
  return 0;
}

double OpenLoopResult::FailedFrac() const {
  return attempted == 0 ? 0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

bool OpenLoopResult::QueueGrowing(double slack) const {
  size_t n = queue_depth.size();
  size_t quarter = n / 4;
  if (quarter == 0) return false;
  return Mean(queue_depth, n - quarter, n) >
         Mean(queue_depth, 0, quarter) + slack;
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

// Shared driver of RunOpenLoop (`window` 0: submit on the `due_s`
// schedule) and RunClosedLoop (`window` > 0: submit whenever fewer than
// `window` requests are uncollected; each request is due when submitted).
//
// One thread does everything: it submits every request that is due, then
// collects the oldest uncollected one (its Wait leads the server's batch),
// and spins until the next due time only when nothing is outstanding. A
// request due while a batch runs is submitted when the batch ends, and its
// latency counts that wait from its due time, exactly as if it had queued
// during the batch. With one thread no request's latency includes a
// hand-off between threads, and the serving thread is the only busy one.
OpenLoopResult RunLoad(const std::vector<double>& due_s, size_t n,
                       size_t window, OpenLoopTarget& target,
                       SpanRecorder* spans, uint64_t request_base) {
  OpenLoopResult result;
  result.attempted = n;
  result.latency_ms.assign(n, 0);
  result.lag_ms.assign(n, 0);
  result.queue_depth.assign(n, 0);
  std::vector<int64_t> tickets(n, 0);
  std::vector<double> due_at(n, 0), submit_start(n, 0), submit_end(n, 0);

  const double cpu0 = ProcessCpuSeconds();
  const double origin = MonotonicSeconds();
  double idle_s = 0;  // spent spinning until a due time
  size_t submitted = 0;
  if (n > 0) target.Prepare(0);
  for (size_t collected = 0; collected < n; ++collected) {
    while (submitted < n) {
      const size_t i = submitted;
      if (window > 0) {
        if (i >= collected + window) break;
        due_at[i] = MonotonicSeconds();
      } else {
        due_at[i] = origin + due_s[i];
        const double now = MonotonicSeconds();
        if (now < due_at[i]) {
          if (collected < submitted) break;  // serve what is outstanding
          while (MonotonicSeconds() < due_at[i]) CpuRelax();
          idle_s += MonotonicSeconds() - now;
        }
      }
      submit_start[i] = MonotonicSeconds();
      tickets[i] = target.Submit(i);
      submit_end[i] = MonotonicSeconds();
      result.queue_depth[i] = target.QueueDepth();
      ++submitted;
      if (submitted < n) target.Prepare(submitted);
    }
    const size_t i = collected;
    const double wait_start = MonotonicSeconds();
    OpenLoopTarget::Reply reply = target.Wait(tickets[i], i);
    const double wait_end = MonotonicSeconds();
    const double due_abs = due_at[i];
    result.lag_ms[i] = (submit_start[i] - due_abs) * 1e3;
    if (reply.ok) {
      result.latency_ms[i] = result.lag_ms[i] + reply.server_latency_ms;
    } else {
      result.latency_ms[i] = std::numeric_limits<double>::infinity();
      ++result.failed;
    }
    if (spans != nullptr) {
      Span root;
      root.id = spans->NewId();
      root.request = request_base + i;
      root.name = "request";
      root.start_s = due_abs;
      root.end_s = reply.ok ? due_abs + result.latency_ms[i] * 1e-3 : wait_end;
      Span submit{spans->NewId(), root.id, root.request, "serve.submit",
                  submit_start[i], submit_end[i]};
      Span wait{spans->NewId(), root.id, root.request, "serve.wait",
                std::max(wait_start, submit_end[i]), wait_end};
      spans->Add(std::move(root));
      spans->Add(std::move(submit));
      spans->Add(std::move(wait));
    }
  }
  result.wall_s = MonotonicSeconds() - origin;
  // Spinning until a due time is the generator's, not the server's.
  result.cpu_s = ProcessCpuSeconds() - cpu0 - idle_s;
  return result;
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s,
                           OpenLoopTarget& target, SpanRecorder* spans,
                           uint64_t request_base) {
  return RunLoad(due_s, due_s.size(), 0, target, spans, request_base);
}

OpenLoopResult RunClosedLoop(size_t count, size_t window,
                             OpenLoopTarget& target) {
  return RunLoad({}, count, window, target, nullptr, 0);
}

GoodputResult SearchGoodput(
    const GoodputSearch& search, const GoodputCriteria& criteria,
    const std::function<StepOutcome(double rate)>& measure) {
  GoodputResult result;
  auto visit = [&](double rate) {
    result.steps.push_back(measure(rate));
    return result.steps.back();
  };
  StepOutcome start = visit(search.start);

  // Bracket [lo, hi): lo passes, hi fails (hi == 0: nothing failed).
  StepOutcome lo, hi;
  hi.rate = 0;
  if (criteria.Passes(start)) {
    lo = start;
    while (lo.rate < search.max_rate) {
      StepOutcome next = visit(std::min(lo.rate * 2, search.max_rate));
      if (!criteria.Passes(next)) {
        hi = next;
        break;
      }
      lo = next;
    }
  } else {
    hi = start;
    for (;;) {
      double rate = hi.rate / 2;
      if (rate < search.min_rate) return result;  // goodput 0
      StepOutcome next = visit(rate);
      if (criteria.Passes(next)) {
        lo = next;
        break;
      }
      hi = next;
    }
  }
  if (hi.rate > 0) {
    for (int k = 0; k < kGoodputBisections; ++k) {
      StepOutcome mid = visit(std::sqrt(lo.rate * hi.rate));
      if (criteria.Passes(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  result.goodput = lo.rate;
  return result;
}

}  // namespace e2ebench
