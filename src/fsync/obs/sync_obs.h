// SyncObserver: the per-session accumulator the channel and the protocol
// implementations feed. The channel reports every wire message (payload +
// framing bytes) via OnWireMessage; the protocol declares, just before
// each send, which Phase the next messages pay for (set_phase) and which
// round they belong to (set_round). The observer therefore sums, per
// (phase, direction), exactly the bytes the channel's TrafficStats
// counts — the conformance suite pins phase-sum == channel-total for
// every protocol (tests/conformance_test.cc, invariant 6).
//
// Everything is host-side: attaching an observer never changes a single
// wire byte (pinned by tests/obs_test.cc). Protocols take an optional
// `obs::SyncObserver*` defaulted to nullptr; the null-safe free helpers
// below make the uninstrumented path one predictable branch.
#ifndef FSYNC_OBS_SYNC_OBS_H_
#define FSYNC_OBS_SYNC_OBS_H_

#include <cstdint>

#include "fsync/obs/metrics.h"
#include "fsync/obs/trace.h"

namespace fsx::obs {

/// Discrete robustness events the transport and session layers report.
/// Counted per observer (i.e. per observed session) and flushed to the
/// registry as `<prefix>.events.<name>` counters, so retransmission and
/// degradation behavior is visible in BENCH_*.json / --metrics-json.
enum class Event : uint8_t {
  kRetransmit,        ///< a data record was re-sent after a timeout
  kTimeout,           ///< a receive deadline expired (clock advanced)
  kCorruptRecord,     ///< record discarded: CRC32C/frame check failed
  kDuplicateRecord,   ///< record discarded: sequence number already seen
  kReorderBuffered,   ///< out-of-order record parked in the reorder buffer
  kResume,            ///< a session resumed from a checkpoint
  kRepairRegion,      ///< one region repaired by the degradation ladder
  kFullFallback,      ///< last-resort compressed full transfer
  kJournalCommit,     ///< a durable-apply transaction committed
  kRecovery,          ///< a leftover journal was found and resolved
  kRolledBackFile,    ///< recovery discarded a staged/partial file state
  kConflictDetected,  ///< apply skipped a concurrently modified file
  kRenameAdopted,     ///< a moved/renamed file adopted by content hash
                      ///< (zero literal bytes on the wire)
  kSmallFileBatched,  ///< a small file shipped in the aggregate batch
                      ///< round instead of its own session
  kCacheHit,          ///< a server computation was served from the cache
  kCacheMiss,         ///< a cache lookup found nothing (live compute ran)
  kCacheEviction,     ///< an LRU entry was evicted to meet the byte budget
  kCacheBytesSaved,   ///< payload bytes served from cache instead of
                      ///< being recomputed (counted per byte)
  kCacheCpuSavedNs,   ///< recompute time a cache hit avoided, in
                      ///< nanoseconds (insert-time measurement)
  kConnAccepted,      ///< the daemon accepted a client connection
  kConnEvicted,       ///< a connection was evicted (oldest-idle) to make
                      ///< room at the connection cap
  kConnDrained,       ///< a connection finished cleanly during drain
  kBackpressureStall, ///< reads from a client paused because its write
                      ///< queue crossed the high watermark
  kDeadlineExpired,   ///< an idle/handshake/session/drain deadline fired
  kDiskFaultInjected, ///< the fault-injecting Vfs failed a disk op
                      ///< (tests/CLI smoke only; zero in production)
  kEnospcAbort,       ///< a tree apply aborted and rolled back on
                      ///< disk-full (kResourceExhausted) mid-transaction
  kFsyncFailure,      ///< an fsync returned an error; the affected file
                      ///< is treated as unverified, never as synced
  kDiskRetry,         ///< a staged write was retried after a transient
                      ///< disk fault (EIO / failed fsync)
};

inline constexpr int kNumEvents = 28;

/// Stable lower-case name, used as the JSON/metrics key.
inline const char* EventName(Event e) {
  switch (e) {
    case Event::kRetransmit:
      return "retransmits";
    case Event::kTimeout:
      return "timeouts";
    case Event::kCorruptRecord:
      return "corrupt_records";
    case Event::kDuplicateRecord:
      return "duplicate_records";
    case Event::kReorderBuffered:
      return "reorder_buffered";
    case Event::kResume:
      return "resumes";
    case Event::kRepairRegion:
      return "repaired_regions";
    case Event::kFullFallback:
      return "full_fallbacks";
    case Event::kJournalCommit:
      return "journal_commits";
    case Event::kRecovery:
      return "recoveries";
    case Event::kRolledBackFile:
      return "rolled_back_files";
    case Event::kConflictDetected:
      return "conflicts_detected";
    case Event::kRenameAdopted:
      return "renames_adopted";
    case Event::kSmallFileBatched:
      return "small_files_batched";
    case Event::kCacheHit:
      return "cache_hits";
    case Event::kCacheMiss:
      return "cache_misses";
    case Event::kCacheEviction:
      return "cache_evictions";
    case Event::kCacheBytesSaved:
      return "cache_bytes_saved";
    case Event::kCacheCpuSavedNs:
      return "cache_cpu_saved_ns";
    case Event::kConnAccepted:
      return "connections_accepted";
    case Event::kConnEvicted:
      return "connections_evicted";
    case Event::kConnDrained:
      return "connections_drained";
    case Event::kBackpressureStall:
      return "backpressure_stalls";
    case Event::kDeadlineExpired:
      return "deadline_expirations";
    case Event::kDiskFaultInjected:
      return "disk_faults_injected";
    case Event::kEnospcAbort:
      return "enospc_aborts";
    case Event::kFsyncFailure:
      return "fsync_failures";
    case Event::kDiskRetry:
      return "disk_retries";
  }
  return "unknown";
}

/// Per-(phase, direction) byte accumulator with optional trace fan-out.
class SyncObserver {
 public:
  /// Names the protocol for subsequent trace events. The pointer must
  /// outlive the observer (use string literals).
  void set_protocol(const char* name) { protocol_ = name; }
  const char* protocol() const { return protocol_; }

  /// Installs (or clears) a trace sink. Byte accounting works with or
  /// without one; the sink only adds event fan-out.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Declares the phase charged for subsequent wire messages.
  void set_phase(Phase p) { phase_ = p; }
  Phase phase() const { return phase_; }

  /// Declares the protocol round subsequent messages belong to.
  void set_round(uint32_t round) { round_ = round; }
  uint32_t round() const { return round_; }

  /// Called by SimulatedChannel for every sent message with the exact
  /// wire cost (payload + varint framing) it just charged to its
  /// TrafficStats. This is the only path by which wire bytes enter the
  /// observer, which is what makes the cross-check exact.
  void OnWireMessage(Flow dir, uint64_t bytes);

  /// Adds bytes that bypass a channel (e.g. the out-of-band fingerprint
  /// exchange SyncCollectionWith charges to its stats directly).
  void AddBytes(Phase phase, Flow dir, uint64_t bytes);

  /// Moves up to `bytes` from one phase to another within a direction,
  /// clamped to what `from` actually holds, so totals are preserved.
  /// Used post-hoc where one wire message mixes phases (the session
  /// protocol's round messages carry candidate hashes, continuation
  /// hashes, and delta fragments together).
  void Reattribute(Phase from, Phase to, Flow dir, uint64_t bytes);

  /// Counts `n` occurrences of a robustness event (see Event).
  void AddEvent(Event e, uint64_t n = 1) {
    events_[static_cast<int>(e)] += n;
  }
  uint64_t event_count(Event e) const {
    return events_[static_cast<int>(e)];
  }

  /// Records a completed protocol round and its wall-clock span.
  void RecordRound(uint32_t round, uint64_t wall_ns);

  /// Emits a kSession trace event covering `wall_ns` and the bytes
  /// observed so far. Does not reset anything.
  void RecordSession(uint64_t wall_ns);

  // Accessors over the accumulated state.
  uint64_t phase_bytes(Phase phase, Flow dir) const {
    return bytes_[PhaseIndex(phase)][DirIndex(dir)];
  }
  uint64_t phase_bytes(Phase phase) const {
    return phase_bytes(phase, Flow::kUp) + phase_bytes(phase, Flow::kDown);
  }
  uint64_t dir_bytes(Flow dir) const;
  uint64_t total_bytes() const {
    return dir_bytes(Flow::kUp) + dir_bytes(Flow::kDown);
  }
  uint32_t rounds() const { return rounds_completed_; }
  uint64_t wall_ns() const { return wall_ns_; }
  const Histogram& round_ns() const { return round_ns_; }
  const Histogram& message_bytes() const { return message_bytes_; }

  /// Copy of the byte matrix, the event counters and the round count,
  /// for comparing what two runs attributed.
  struct State {
    uint64_t bytes[kNumPhases][2] = {};
    uint64_t events[kNumEvents] = {};
    uint32_t rounds = 0;
  };
  State Snapshot() const;

  /// Folds the accumulated state into named registry instruments under
  /// `prefix` (e.g. "session"): `<prefix>.bytes.<phase>.<dir>` counters,
  /// `<prefix>.rounds`, and `<prefix>.round_ns` / `<prefix>.message_bytes`
  /// histograms.
  void FlushTo(MetricsRegistry& registry, const std::string& prefix) const;

 private:
  static constexpr int PhaseIndex(Phase p) { return static_cast<int>(p); }
  static constexpr int DirIndex(Flow f) { return static_cast<int>(f); }

  const char* protocol_ = "";
  TraceSink* sink_ = nullptr;
  Phase phase_ = Phase::kHandshake;
  uint32_t round_ = 0;
  uint32_t rounds_completed_ = 0;
  uint64_t wall_ns_ = 0;
  uint64_t bytes_[kNumPhases][2] = {};
  uint64_t events_[kNumEvents] = {};
  Histogram round_ns_;
  Histogram message_bytes_;
};

// Null-safe helpers: the uninstrumented call sites compile down to one
// branch on a pointer that is almost always null.

inline void SetPhase(SyncObserver* obs, Phase p) {
  if (obs != nullptr) obs->set_phase(p);
}

inline void SetRound(SyncObserver* obs, uint32_t round) {
  if (obs != nullptr) obs->set_round(round);
}

inline void AddBytes(SyncObserver* obs, Phase phase, Flow dir,
                     uint64_t bytes) {
  if (obs != nullptr) obs->AddBytes(phase, dir, bytes);
}

inline void Reattribute(SyncObserver* obs, Phase from, Phase to, Flow dir,
                        uint64_t bytes) {
  if (obs != nullptr) obs->Reattribute(from, to, dir, bytes);
}

inline void RecordRound(SyncObserver* obs, uint32_t round,
                        uint64_t wall_ns) {
  if (obs != nullptr) obs->RecordRound(round, wall_ns);
}

inline void AddEvent(SyncObserver* obs, Event e, uint64_t n = 1) {
  if (obs != nullptr) obs->AddEvent(e, n);
}

}  // namespace fsx::obs

#endif  // FSYNC_OBS_SYNC_OBS_H_
