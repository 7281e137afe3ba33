// In-memory span recorder for the benchmark's traced runs. Spans are
// opened around the benchmark's own calls into each layer's public
// functions (never inside the library), kept in memory while the run
// measures, and written at the end as Chrome trace-event JSON
// (chrome://tracing, Perfetto). A disabled tracer records nothing and
// costs one branch per scope, so untraced runs time the same calls.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// CPU time of the calling thread, in nanoseconds.
uint64_t ThreadCpuNs();

struct Span {
  const char* name = "";  // string literal: "<layer>.<call>"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t op = 0;      // operation id shared by the spans of one sync
  uint32_t tid = 0;     // small per-thread number for the trace viewer
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; a no-op when the tracer is disabled. Nested scopes on
  /// one thread become parent and child.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  /// Sets the operation id stamped on spans opened by this thread.
  static void SetThreadOp(uint64_t op);

  /// Sum over spans named `name` of duration minus the part of it that
  /// its children cover (self time), in nanoseconds.
  uint64_t SelfNs(const std::string& name) const;
  /// Sum of the durations of spans named `name`, in nanoseconds.
  uint64_t TotalNs(const std::string& name) const;
  size_t size() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t Open(const char* name, int64_t parent);
  void Close(int64_t index);
  /// Self time of span `i` given the child list (caller holds mu_).
  uint64_t SelfNsLocked(size_t i,
                        const std::vector<std::vector<size_t>>& kids) const;
  std::vector<std::vector<size_t>> ChildrenLocked() const;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
