#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>

namespace perfbench {
namespace {

thread_local int64_t t_parent = -1;
thread_local uint64_t t_op = 0;
thread_local uint32_t t_tid = 0;
std::atomic<uint32_t> g_next_tid{1};

uint32_t ThreadNumber() {
  if (t_tid == 0) {
    t_tid = g_next_tid.fetch_add(1);
  }
  return t_tid;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  saved_parent_ = t_parent;
  index_ = tracer.Open(name, t_parent);
  t_parent = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->Close(index_);
  t_parent = saved_parent_;
}

void Tracer::SetThreadOp(uint64_t op) { t_op = op; }

int64_t Tracer::Open(const char* name, int64_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = t_op;
  s.tid = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  spans_.back().start_ns = NowNs();
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::Close(int64_t index) {
  const uint64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<std::vector<size_t>> Tracer::ChildrenLocked() const {
  std::vector<std::vector<size_t>> kids(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      kids[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  return kids;
}

uint64_t Tracer::SelfNsLocked(
    size_t i, const std::vector<std::vector<size_t>>& kids) const {
  const Span& s = spans_[i];
  const uint64_t dur = s.end_ns - s.start_ns;
  // Union of the children's intervals, clipped to the parent.
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (size_t k : kids[i]) {
    iv.emplace_back(std::max(spans_[k].start_ns, s.start_ns),
                    std::min(spans_[k].end_ns, s.end_ns));
  }
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0;
  uint64_t lo = 0, hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    if (b <= a) {
      continue;
    }
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) {
      covered += hi - lo;
    }
    lo = a;
    hi = b;
    open = true;
  }
  if (open) {
    covered += hi - lo;
  }
  return dur > covered ? dur - covered : 0;
}

uint64_t Tracer::SelfNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto kids = ChildrenLocked();
  uint64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += SelfNsLocked(i, kids);
    }
  }
  return total;
}

uint64_t Tracer::TotalNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const auto kids = ChildrenLocked();
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t start = s.start_ns >= base ? s.start_ns - base : 0;
    // Category: the layer, i.e. the name up to its first '.'.
    const std::string_view layer =
        std::string_view(s.name).substr(0, std::string_view(s.name).find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%llu,"
                 "\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, static_cast<int>(layer.size()),
                 layer.data(), s.tid, start / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 SelfNsLocked(i, kids) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
