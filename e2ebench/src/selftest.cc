// Tests of the benchmark's own arithmetic: the percentile rule, due-time
// latency under an injected stall, the goodput search on a synthetic
// latency curve, determinism of the seeded generators, and span self time.
// Exits non-zero on the first failed expectation.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "spans.h"

namespace e2ebench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestPercentileRule() {
  EXPECT(TailPercentile(10000) == 99.9);
  EXPECT(TailPercentile(9999) == 99);
  EXPECT(TailPercentile(1000) == 99);
  EXPECT(TailPercentile(999) == 90);
  EXPECT(TailPercentile(100) == 90);
  EXPECT(TailPercentile(99) == 50);
  EXPECT(TailPercentile(20) == 50);
  EXPECT(TailPercentile(19) == 0);

  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  EXPECT(Percentile(values, 50) == 500);
  EXPECT(Percentile(values, 99) == 990);
  EXPECT(Percentile(values, 100) == 1000);
  // Exactly ten samples lie beyond p99 of 1000.
  size_t beyond = 0;
  for (double v : values) beyond += v > Percentile(values, 99) ? 1 : 0;
  EXPECT(beyond == 10);
  // Failed requests (+inf) sort last and count as missing any limit.
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 11; ++i) values[static_cast<size_t>(i)] = inf;
  EXPECT(Percentile(values, 99) == inf);
  EXPECT(std::isnan(Percentile({}, 50)));
}

// A target whose Submit stalls once; every reply reports 1 ms of service.
class StallTarget : public OpenLoopTarget {
 public:
  StallTarget(size_t stall_at, double stall_s)
      : stall_at_(stall_at), stall_s_(stall_s) {}
  int64_t Submit(size_t request) override {
    if (request == stall_at_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
    }
    return static_cast<int64_t>(request);
  }
  Reply Wait(int64_t, size_t) override { return Reply{true, 1.0}; }
  int QueueDepth() const override { return 0; }

 private:
  size_t stall_at_;
  double stall_s_;
};

void TestDueTimeLatency() {
  // One request every 10 ms; submitting request 10 stalls for 200 ms.
  std::vector<double> due;
  for (int i = 0; i < 60; ++i) due.push_back(0.01 * i);
  StallTarget target(10, 0.2);
  SpanRecorder spans;
  OpenLoopResult r = RunOpenLoop(due, target, &spans, 0);
  EXPECT(r.attempted == 60 && r.failed == 0);
  // Before the stall: about the 1 ms service time.
  EXPECT(r.latency_ms[5] < 20);
  // Requests due during the stall were submitted late, and their latency
  // counts the wait from their due time: request 11 is due 10 ms after the
  // stall began, so it waited about 190 ms; request 20 about 100 ms.
  EXPECT(r.latency_ms[11] > 150);
  EXPECT(r.latency_ms[20] > 60);
  EXPECT(r.latency_ms[11] > r.latency_ms[20]);
  // Long after the stall the generator has caught up.
  EXPECT(r.latency_ms[59] < 20);
  EXPECT(Percentile(r.lag_ms, 99) > 150);
  // Every request has a root span with submit and wait children.
  EXPECT(spans.spans().size() == 3 * 60);
}

// Synthetic M/M/1-like curve: p99 = 2 ms / (1 - rate / 1500) below
// capacity; beyond 1400 req/s 5% of requests fail.
StepOutcome Curve(double rate) {
  StepOutcome step;
  step.rate = rate;
  step.p99_ms = rate < 1500 ? 2.0 / (1 - rate / 1500)
                            : std::numeric_limits<double>::infinity();
  step.failed_frac = rate > 1400 ? 0.05 : 0;
  step.queue_growing = rate >= 1500;
  return step;
}

void TestGoodputSearch() {
  GoodputCriteria criteria;
  criteria.p99_limit_ms = 20;  // passes up to 1350 req/s
  GoodputSearch search;
  search.start = 500;
  search.min_rate = 500.0 / 8;
  search.max_rate = 500.0 * 8;
  int calls = 0;
  auto measure = [&](double rate) {
    ++calls;
    return Curve(rate);
  };
  GoodputResult up = SearchGoodput(search, criteria, measure);
  EXPECT(up.goodput <= 1350);
  EXPECT(up.goodput > 1350 / std::pow(2.0, 1.0 / 32));
  EXPECT(criteria.Passes(Curve(up.goodput)));
  EXPECT(calls == 1 + 2 + kGoodputBisections);  // start, 1000, 2000, bisections

  // From above the knee the search halves down to a passing rate.
  search.start = 4000;
  GoodputResult down = SearchGoodput(search, criteria, measure);
  EXPECT(down.goodput <= 1350);
  EXPECT(down.goodput > 1350 / std::pow(2.0, 1.0 / 32));

  // A failure criterion alone bounds goodput too: with a lax latency limit
  // the 5% failures above 1400 req/s decide.
  criteria.p99_limit_ms = 1000;
  search.start = 500;
  GoodputResult failures = SearchGoodput(search, criteria, measure);
  EXPECT(failures.goodput <= 1400);
  EXPECT(failures.goodput > 1400 / std::pow(2.0, 1.0 / 32));

  // Nothing passes: goodput 0.
  criteria.p99_limit_ms = 0.5;
  EXPECT(SearchGoodput(search, criteria, measure).goodput == 0);
}

void TestGenerators() {
  EXPECT(PoissonArrivals(800, 5000, 7) == PoissonArrivals(800, 5000, 7));
  EXPECT(PoissonArrivals(800, 5000, 7) != PoissonArrivals(800, 5000, 8));
  std::vector<double> poisson = PoissonArrivals(800, 20000, 7);
  EXPECT(std::is_sorted(poisson.begin(), poisson.end()));
  EXPECT(std::fabs(20000 / poisson.back() / 800 - 1) < 0.05);

  EXPECT(OnOffArrivals(800, 5000, 0.05, 0.05, 7) ==
         OnOffArrivals(800, 5000, 0.05, 0.05, 7));
  EXPECT(OnOffArrivals(800, 5000, 0.05, 0.05, 7) !=
         OnOffArrivals(800, 5000, 0.05, 0.05, 9));
  std::vector<double> bursty = OnOffArrivals(800, 20000, 0.05, 0.05, 7);
  EXPECT(std::is_sorted(bursty.begin(), bursty.end()));
  EXPECT(std::fabs(20000 / bursty.back() / 800 - 1) < 0.1);
  // Bursty: far more long silences than Poisson at the same mean rate.
  auto gaps_over = [](const std::vector<double>& due, double gap) {
    int count = 0;
    for (size_t i = 1; i < due.size(); ++i) count += due[i] - due[i - 1] > gap;
    return count;
  };
  EXPECT(gaps_over(bursty, 0.02) > 10 * (gaps_over(poisson, 0.02) + 1));

  ZipfSampler zipf(1024, 1.0);
  std::mt19937_64 a(3), b(3);
  std::vector<size_t> first, second, counts(1024, 0);
  for (int i = 0; i < 20000; ++i) {
    first.push_back(zipf.Sample(a));
    second.push_back(zipf.Sample(b));
    ++counts[first.back()];
  }
  EXPECT(first == second);
  EXPECT(counts[0] > counts[1] && counts[1] > counts[10] &&
         counts[10] > counts[500]);
  // Rank 0 carries about 1 / H(1024) ~ 13% of the mass.
  EXPECT(std::fabs(counts[0] / 20000.0 - 0.133) < 0.02);
}

void TestSelfTime() {
  std::vector<Span> spans = {
      {1, 0, 0, "parent", 0, 10},
      {2, 1, 0, "child", 1, 3},
      {3, 1, 0, "child", 2, 5},    // overlaps the first child
      {4, 1, 0, "child", 8, 12},   // clipped to the parent at 10
      {5, 2, 0, "grandchild", 1, 2},
  };
  std::vector<double> self = SelfTimes(spans);
  EXPECT(std::fabs(self[0] - 4) < 1e-12);  // 10 - [1,5] - [8,10]
  EXPECT(std::fabs(self[1] - 1) < 1e-12);  // 2 - 1
  EXPECT(std::fabs(self[4] - 1) < 1e-12);
  auto summary = Summarize(spans);
  EXPECT(summary["child"].count == 3);
  EXPECT(std::fabs(summary["child"].total_s - 9) < 1e-12);
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::TestPercentileRule();
  e2ebench::TestDueTimeLatency();
  e2ebench::TestGoodputSearch();
  e2ebench::TestGenerators();
  e2ebench::TestSelfTime();
  if (e2ebench::g_failures > 0) {
    std::fprintf(stderr, "e2ebench_selftest: %d failed\n",
                 e2ebench::g_failures);
    return 1;
  }
  std::printf("e2ebench_selftest: ok\n");
  return 0;
}
