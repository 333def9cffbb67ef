#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "loadgen.h"

namespace e2ebench {
namespace {

thread_local uint64_t t_open_span = 0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  span_.start_s = MonotonicSeconds();
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NewId();
  span_.parent = t_open_span;
  span_.name = name;
  saved_parent_ = std::exchange(t_open_span, span_.id);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_s = MonotonicSeconds();
  t_open_span = saved_parent_;
  recorder_->Add(std::move(span_));
}

double SpanRecorder::Scope::elapsed_s() const {
  return MonotonicSeconds() - span_.start_s;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) continue;
    const Span& p = spans[parent->second];
    double start = std::max(span.start_s, p.start_s);
    double end = std::min(span.end_s, p.end_s);
    if (end > start) children[parent->second].emplace_back(start, end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double run_start = 0, run_end = -1;
    for (const auto& [start, end] : intervals) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = spans[i].duration_s() - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = summary[spans[i].name];
    ++s.count;
    s.total_s += spans[i].duration_s();
    s.self_s += self[i];
  }
  return summary;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = all.empty() ? 0 : all.front().start_s;
  for (const Span& s : all) origin = std::min(origin, s.start_s);
  std::fprintf(f, "{\"summary\": {");
  bool first = true;
  for (const auto& [name, s] : Summarize(all)) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %zu, \"total_s\": %.9g, "
                 "\"self_s\": %.9g}",
                 first ? "" : ",", JsonEscape(name).c_str(), s.count,
                 s.total_s, s.self_s);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  first = true;
  for (const Span& s : all) {
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 JsonEscape(s.name).c_str(), s.start_s - origin,
                 s.end_s - origin);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
