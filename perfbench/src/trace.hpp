#pragma once

/// In-memory span recorder for the benchmark's traced runs.  Spans are timed
/// from the benchmark's own code around calls into the program's public
/// functions; nothing inside the program is instrumented.  Spans stay in
/// memory until the run ends and are then written once as Chrome
/// trace-event JSON (load it in chrome://tracing or Perfetto).
///
/// Every span has a name, start, end and parent span; spans that belong to
/// one tuning round or one query share a `group` id.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t id = 0;
    std::int64_t parent = 0;  ///< 0 = no parent
    std::int64_t group = 0;   ///< round or query id shared by related spans
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Reserve an id before the span's end is known, so children recorded
  /// first can name it as their parent.
  std::int64_t next_id() { return ++last_id_; }

  /// Record a finished span under a reserved id.
  void record(std::int64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, std::int64_t parent, std::int64_t group) {
    if (!enabled_) return;
    spans_.push_back({name, start, end, id, parent, group});
  }

  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::int64_t group) {
    std::int64_t id = next_id();
    record(id, name, start, end, parent, group);
    return id;
  }

  std::size_t size() const { return spans_.size(); }

  /// Write every span as one Chrome trace-event JSON document.  Returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path, int pid) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"group\":%lld}}",
                   i == 0 ? "" : ",\n", s.name, pid, us_between(origin_, s.start),
                   us_between(s.start, s.end), static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.group));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::int64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
