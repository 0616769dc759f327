// trace.hpp — in-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each layer: a solve, each kernel call through TimedBackend, a client
// request and the service-side intervals its response reports.  They stay
// in memory and are written once, at the end, as Chrome Trace Event JSON
// (load the file in chrome://tracing or Perfetto).  Recording is
// thread-safe; the client threads of the served probe share one
// recorder.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  /// Spans past `capacity` are counted but not kept, so a long traced run
  /// cannot grow without bound.
  explicit SpanRecorder(std::size_t capacity = 400000);

  /// Nanoseconds on the steady clock since this recorder was made.
  std::int64_t now_ns() const;

  /// A fresh span id, taken before the span ends so children can name it.
  int reserve_id();

  /// Record a finished span.  `name` and `category` must be string
  /// literals (they are stored as pointers).  `group` is the solve or
  /// request id the span belongs to; `parent` is -1 for a root span.
  void record(int id, const char* name, const char* category,
              std::int64_t start_ns, std::int64_t end_ns, int parent,
              long group, std::string args_json = {});

  std::size_t size() const;
  long dropped() const;

  /// Write every kept span as Chrome Trace Event JSON.  Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int id;
    int parent;
    long group;
    int tid;
    std::string args;
  };

  const std::size_t capacity_;
  const std::int64_t origin_ns_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int next_id_ = 1;
  long dropped_ = 0;
};

}  // namespace perfbench
