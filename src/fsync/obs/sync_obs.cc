#include "fsync/obs/sync_obs.h"

#include <algorithm>
#include <cstring>

namespace fsx::obs {

void SyncObserver::OnWireMessage(Flow dir, uint64_t bytes) {
  bytes_[PhaseIndex(phase_)][DirIndex(dir)] += bytes;
  message_bytes_.Record(bytes);
  if (sink_ != nullptr) {
    TraceEvent event;
    event.protocol = protocol_;
    event.kind = EventKind::kMessage;
    event.round = round_;
    event.phase = phase_;
    event.dir = dir;
    event.bytes = bytes;
    sink_->OnEvent(event);
  }
}

void SyncObserver::AddBytes(Phase phase, Flow dir, uint64_t bytes) {
  bytes_[PhaseIndex(phase)][DirIndex(dir)] += bytes;
}

void SyncObserver::Reattribute(Phase from, Phase to, Flow dir,
                               uint64_t bytes) {
  uint64_t& src = bytes_[PhaseIndex(from)][DirIndex(dir)];
  const uint64_t moved = std::min(src, bytes);
  src -= moved;
  bytes_[PhaseIndex(to)][DirIndex(dir)] += moved;
}

void SyncObserver::RecordRound(uint32_t round, uint64_t wall_ns) {
  ++rounds_completed_;
  round_ns_.Record(wall_ns);
  if (sink_ != nullptr) {
    TraceEvent event;
    event.protocol = protocol_;
    event.kind = EventKind::kRound;
    event.round = round;
    event.wall_ns = wall_ns;
    sink_->OnEvent(event);
  }
}

void SyncObserver::RecordSession(uint64_t wall_ns) {
  wall_ns_ += wall_ns;
  if (sink_ != nullptr) {
    TraceEvent event;
    event.protocol = protocol_;
    event.kind = EventKind::kSession;
    event.bytes = total_bytes();
    event.wall_ns = wall_ns;
    sink_->OnEvent(event);
  }
}

uint64_t SyncObserver::dir_bytes(Flow dir) const {
  uint64_t total = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    total += bytes_[p][DirIndex(dir)];
  }
  return total;
}

SyncObserver::State SyncObserver::Snapshot() const {
  State state;
  std::memcpy(state.bytes, bytes_, sizeof(bytes_));
  std::memcpy(state.events, events_, sizeof(events_));
  state.rounds = rounds_completed_;
  return state;
}

void SyncObserver::FlushTo(MetricsRegistry& registry,
                           const std::string& prefix) const {
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    for (Flow dir : {Flow::kUp, Flow::kDown}) {
      const uint64_t n = phase_bytes(phase, dir);
      if (n != 0) {
        registry
            .counter(prefix + ".bytes." + PhaseName(phase) + "." +
                     FlowName(dir))
            .Add(n);
      }
    }
  }
  for (int e = 0; e < kNumEvents; ++e) {
    const uint64_t n = events_[e];
    if (n != 0) {
      registry
          .counter(prefix + ".events." + EventName(static_cast<Event>(e)))
          .Add(n);
    }
  }
  registry.counter(prefix + ".rounds").Add(rounds_completed_);
  registry.histogram(prefix + ".round_ns").Merge(round_ns_);
  registry.histogram(prefix + ".message_bytes").Merge(message_bytes_);
}

}  // namespace fsx::obs
