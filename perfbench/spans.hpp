// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the harness itself, around its calls into each
// layer's public functions: name, start, end, parent span and request
// id. They stay in memory until the run ends, when self times are
// computed and the spans are written out as a Chrome/Perfetto trace.
// Recording is single-threaded: only the harness's main thread opens
// spans (the serving workload builds its request spans from the
// server's own timestamps after the responses arrive).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// The harness's time origin, fixed by the first call.
inline Clock::time_point origin() {
  static const Clock::time_point t = Clock::now();
  return t;
}
// Seconds since the origin, and back.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now() - origin()).count();
}
inline Clock::time_point at(double seconds) {
  return origin() + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
}

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;            // index into the span list, -1 = root
  std::int64_t request = -1;  // request / operation id, -1 = none
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  // Opens a span under the innermost open span; returns its index, or
  // -1 when recording is off.
  int open(const std::string& name, std::int64_t request) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[index].end_s = now_s();
    stack_.pop_back();
  }
  // A span whose times were measured elsewhere (the server's queue and
  // service intervals); returns its index.
  int add(const std::string& name, double start_s, double end_s, int parent,
          std::int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_s, end_s, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Per span name: total self time in seconds, where a span's self time
  // is its duration minus the part of it that its children cover.
  // Children of one parent never overlap (recording is sequential), so
  // their durations add.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return out;
  }

  // Chrome trace-event JSON ("X" events, microseconds), loadable in
  // Perfetto; parent and request ids ride in each event's args.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"request\": %lld}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, s.parent,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "], \"selfSeconds\": {");
    bool first = true;
    for (const auto& [name, self] : self_seconds()) {
      std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", name.c_str(), self);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; stop() closes it early and returns its duration, which is
// measured whether or not recording is on.
class Timed {
 public:
  Timed(SpanRecorder& rec, const std::string& name, std::int64_t request)
      : rec_(rec), index_(rec.open(name, request)), start_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (!done_) {
      seconds_ = now_s() - start_;
      rec_.close(index_);
      done_ = true;
    }
    return seconds_;
  }

 private:
  SpanRecorder& rec_;
  int index_;
  double start_;
  double seconds_ = 0.0;
  bool done_ = false;
};

}  // namespace perfbench
