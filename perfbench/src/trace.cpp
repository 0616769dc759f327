#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small stable per-thread number for the trace viewer's lanes.
int thread_lane() {
  static std::atomic<int> next{0};
  thread_local const int lane = ++next;
  return lane;
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity), origin_ns_(steady_ns()) {
  spans_.reserve(capacity_ < 65536 ? capacity_ : 65536);
}

std::int64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

int SpanRecorder::reserve_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::record(int id, const char* name, const char* category,
                          std::int64_t start_ns, std::int64_t end_ns,
                          int parent, long group, std::string args_json) {
  const int tid = thread_lane();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, category, start_ns, end_ns, id, parent, group,
                        tid, std::move(args_json)});
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

long SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"dropped_spans\": %ld}, \"traceEvents\": [\n",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %d, \"parent\": %d, \"group\": %ld%s%s}}"
                 "%s\n",
                 s.name, s.category, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, s.id,
                 s.parent, s.group, s.args.empty() ? "" : ", ",
                 s.args.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
