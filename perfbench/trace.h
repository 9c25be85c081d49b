// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed only by benchmark code, around its calls
// into the library's public layers (see perfbench/README.md). Each span
// carries a name, start and end on the steady clock, the span that caused
// it, the request it belongs to (one ingest pass or one query), and the
// thread that ran it. Nothing is recorded while the tracer is disabled,
// so the timed (untraced) run pays one branch per span site.
//
// A span's self time is its duration minus the part of it covered by its
// children on the same thread; a child on another thread (a query the
// producer submitted) is caused by the parent but does not block it.
#ifndef GRAPHSKETCH_PERFBENCH_TRACE_H_
#define GRAPHSKETCH_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the causing span; -1 for a root
  uint64_t request = 0;  // spans of one pass or one query share it
  uint32_t thread = 0;   // 0 = producer, 1 = query thread
};

/// Thread-safe span log (see file comment).
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its id, or -1 when tracing is off.
  int32_t Begin(const char* name, int32_t parent, uint64_t request,
                uint32_t thread) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = parent;
    s.request = request;
    s.thread = thread;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Records a span whose interval the caller already measured.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request, uint32_t thread) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request, thread});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Total self time (ns) and span count per span name, over spans of
  /// `request` only (0 = every request).
  std::map<std::string, std::pair<double, uint64_t>> SelfTimes(
      uint64_t request = 0) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0 &&
          spans_[static_cast<size_t>(s.parent)].thread == s.thread) {
        children[static_cast<size_t>(s.parent)].push_back(i);
      }
    }
    std::map<std::string, std::pair<double, uint64_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (request != 0 && s.request != request) continue;
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (size_t c : children[i]) {
        int64_t a = std::max(spans_[c].start_ns, s.start_ns);
        int64_t b = std::min(spans_[c].end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0, reach = s.start_ns;
      for (const auto& [a, b] : cover) {
        if (b <= reach) continue;
        covered += b - std::max(a, reach);
        reach = b;
      }
      auto& slot = out[s.name];
      slot.first += static_cast<double>(s.end_ns - s.start_ns - covered);
      slot.second += 1;
    }
    return out;
  }

  /// Writes every span as one JSON object per line; false on I/O error.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu, "
                   "\"thread\": %u}\n",
                   i, s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.request), s.thread);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;  // set only while no other thread records
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int32_t parent, uint64_t request,
        uint32_t thread = 0)
      : t_(t), id_(t->Begin(name, parent, request, thread)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // GRAPHSKETCH_PERFBENCH_TRACE_H_
