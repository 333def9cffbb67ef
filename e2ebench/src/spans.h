#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

// In-memory span recorder for the benchmark's traced run. Spans are
// recorded by the benchmark around its calls into each layer (never inside
// the library), kept in memory, and written out once when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one serving request
  std::string name;
  double start_s = 0;  // MonotonicSeconds() clock
  double end_s = 0;
  double duration_s() const { return end_s - start_s; }
};

struct SpanSummary {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

class SpanRecorder {
 public:
  // Reserves an id for a span whose interval is added later (Add).
  uint64_t NewId();
  void Add(Span span);
  std::vector<Span> spans() const;

  // Opens a span on the calling thread; the innermost open span of the
  // thread becomes the parent of spans opened under it. With a null
  // recorder (the untraced run) it only keeps time for elapsed_s().
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double elapsed_s() const;

   private:
    SpanRecorder* recorder_;
    Span span_;
    uint64_t saved_parent_ = 0;
  };

  // Writes every span plus the per-name summary as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// Self time of each span: its duration minus the part of its interval that
// its direct children cover (overlapping children count once; children are
// clipped to the parent).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Count, total and self time per span name.
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
