// daemon-fanout: a real netd::SyncDaemon on loopback with its shared
// cache, and one client in a closed loop calling RunSyncClient on stale
// ~5k-file release trees. Time goes into netd (event loop, framing,
// sockets), the manifest exchange and client fingerprinting; server
// compute is served from the cache. It reaches the same core endpoints
// as release-update through a different path.
//
// The client and the daemon's loop thread share one CPU. On a shared
// host, a sync that hands off between threads on different vCPUs waits
// out the host's CPU steal on each, and steal rose with every vCPU kept
// busy: with 3 clients spread over four vCPUs it ranged 2-16% between
// runs minutes apart, and median sync latency spread 35% over eight runs
// while client CPU per sync stayed within 3%. On one CPU each hand-off
// is a local context switch: steal stays near 1%, and over ten runs the
// median spread 3%.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/workload/tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTreeFiles = 5000;
// Syncs run before the timed window: the cache fills and allocator and
// page-cache state settle (throughput climbs ~2x over the first syncs of
// a fresh daemon).
constexpr int kWarmupSyncs = 20;

// Restricts the calling thread, and every thread it starts while in
// scope, to the last CPU it may run on; puts the calling thread's old
// mask back on exit.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
      }
    }
  }
  ~PinToOneCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

struct SyncSample {
  int update = 0;  // which stale replica the sync started from
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

uint64_t g_next_op = 1;

// One closed-loop sync; returns false on any check failure.
bool OneSync(const fsx::Collection& local, const fsx::Collection& served,
             uint16_t port, Tracer& tracer, SyncSample& sample,
             uint64_t& physical_bytes) {
  fsx::netd::ClientOptions options;
  options.port = port;
  Tracer::SetThreadOp(g_next_op++);
  const uint64_t t0 = NowNs();
  const uint64_t c0 = ThreadCpuNs();
  fsx::StatusOr<fsx::netd::ClientResult> r = fsx::Status::Internal("unset");
  {
    Tracer::Scope op(tracer, "bench.op");
    Tracer::Scope s(tracer, "netd.RunSyncClient");
    r = fsx::netd::RunSyncClient(local, options);
  }
  sample.cpu_s = (ThreadCpuNs() - c0) / 1e9;
  sample.wall_s = (NowNs() - t0) / 1e9;
  if (!r.ok()) {
    return false;
  }
  sample.bytes_sent = r->physical_bytes_sent;
  sample.bytes_received = r->physical_bytes_received;
  physical_bytes += r->physical_bytes_sent + r->physical_bytes_received;
  // Checks, apart from the sync: every file of the served tree, and no
  // stream aborted.
  return r->files_aborted == 0 && r->reconstructed == served;
}

}  // namespace

RunResult RunDaemonFanout(const RunOptions& opt, Tracer& tracer) {
  RunResult out;
  // Released once the daemon has stopped: the checks and the kernel
  // probes of the traced run use every CPU, as on the other workloads.
  std::optional<PinToOneCpu> pin;
  pin.emplace();
  fsx::Collection served;
  std::vector<fsx::Collection> stale;
  std::unique_ptr<fsx::netd::SyncDaemon> daemon;
  const fsx::netd::DaemonOptions options;  // shared cache on
  bool started = true;
  EndToEnd e2e;
  e2e.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    // The served release tree is fixed; the seed draws how each stale
    // replica lags it (0.9% of paths: renames, edits, deletions and
    // additions in both directions).
    served = fsx::MakeTreeWorkload(fsx::ReleaseTreeProfile(kTreeFiles))
                 .new_tree;
    stale.clear();
    for (int k = 0; k < kUpdatesPerRun; ++k) {
      stale.push_back(ChurnTree(
          served, opt.seed * kUpdatesPerRun + k,
          {.renamed = 10,
           .edited = 25,
           .deleted = 6,
           .added = 5,
           .web = false,
           .keep_prefix = {}}));
    }
    daemon = std::make_unique<fsx::netd::SyncDaemon>(served, options);
    started = started && daemon->Start().ok();
  }, [&] {
    daemon->Stop();
    daemon->Join();
    daemon.reset();
  });
  if (!started) {
    out.attempted = 1;
    out.failed = 1;
    out.correct = false;
    return out;
  }

  // The i-th sync starts from stale replica i % K; the client stops
  // after the deadline at the end of a round of K. The client runs on a
  // thread of its own: run on the main thread, the ~800 syncs left its
  // malloc arena in a state that slowed the traced run's ZdEncode probe
  // afterwards from ~11 to ~1 MB/s.
  std::vector<SyncSample> samples;
  uint64_t physical = 0;  // every sync, warm-up included
  bool warm_ok = true;
  fsx::netd::DaemonStats before, after;
  double window_s = 0;
  std::thread client([&] {
    for (int i = 0; i < kWarmupSyncs; ++i) {
      SyncSample sample;
      sample.update = i % kUpdatesPerRun;
      warm_ok = OneSync(stale[sample.update], served, daemon->port(), tracer,
                        sample, physical) &&
                warm_ok;
    }
    // The daemon folds connection counters on its loop thread; let it
    // see the last hang-ups before taking a snapshot.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    before = daemon->stats();
    const uint64_t t0 = NowNs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(opt.seconds * 1e9);
    for (uint64_t i = 0; i % kUpdatesPerRun != 0 || NowNs() < deadline;
         ++i) {
      SyncSample sample;
      sample.update = static_cast<int>(i % kUpdatesPerRun);
      ++out.attempted;
      if (OneSync(stale[sample.update], served, daemon->port(), tracer,
                  sample, physical)) {
        samples.push_back(sample);
      } else {
        ++out.failed;
      }
    }
    window_s = (NowNs() - t0) / 1e9;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    after = daemon->stats();
  });
  client.join();
  daemon->Drain();
  daemon->Join();
  const fsx::netd::DaemonStats final_stats = daemon->stats();
  pin.reset();

  // Per stale replica, the bytes on the wire repeat exactly.
  e2e.traffic.resize(kUpdatesPerRun);
  std::vector<bool> seen(kUpdatesPerRun, false);
  bool repeat_ok = true;
  for (const SyncSample& s : samples) {
    fsx::TrafficStats& t = e2e.traffic[s.update];
    if (seen[s.update]) {
      repeat_ok = repeat_ok && t.client_to_server_bytes == s.bytes_sent &&
                  t.server_to_client_bytes == s.bytes_received;
    }
    seen[s.update] = true;
    t.client_to_server_bytes = s.bytes_sent;
    t.server_to_client_bytes = s.bytes_received;
  }
  // Daemon-wide checks: every session it opened completed, and the bytes
  // the client saw on its socket are the bytes it counted.
  out.correct = warm_ok && repeat_ok &&
                std::find(seen.begin(), seen.end(), false) == seen.end() &&
                final_stats.sessions_completed ==
                    final_stats.sessions_opened &&
                physical == final_stats.bytes_in + final_stats.bytes_out;
  if (!out.correct) {
    return out;
  }

  const double n = static_cast<double>(samples.size());
  const uint64_t served_bytes = CollectionBytes(served);
  std::vector<double> cpu;
  for (const SyncSample& s : samples) {
    e2e.ops.push_back({s.wall_s, s.wall_s, served_bytes, s.update});
    cpu.push_back(s.cpu_s);
  }
  e2e.syncs_per_s = n / window_s;
  if (!opt.trace) {
    // The daemon's round trips are not observable from outside; `rounds`
    // is the count the same file sessions take batched in memory over
    // the daemon's config, plus the handshake and the manifest fetch.
    for (int k = 0; k < kUpdatesPerRun; ++k) {
      fsx::SimulatedChannel channel;
      auto model = fsx::SyncCollectionBatched(stale[k], served,
                                              options.config, channel);
      out.correct = out.correct && model.ok();
      e2e.traffic[k].roundtrips = channel.stats().roundtrips + 2;
    }
    AddEndToEnd(e2e, out);
    return out;
  }
  AddTraceShare(tracer, e2e, out);
  std::vector<double> ms;
  for (const SyncSample& s : samples) {
    ms.push_back(s.wall_s * 1e3);
  }
  out.Add("trace.sync_p99_ms", Percentile(ms, 99), "ms");
  const double window_syncs = n + static_cast<double>(out.failed);
  out.Add("netd.loop_cpu_ms_per_sync",
          (after.loop_thread_cpu_ns - before.loop_thread_cpu_ns) / 1e6 /
              window_syncs,
          "ms");
  out.Add("netd.server_cpu_ms_per_sync",
          (after.server_cpu_ns - before.server_cpu_ns) / 1e6 / window_syncs,
          "ms");
  out.Add("netd.client_cpu_ms_per_sync", Median(cpu) * 1e3, "ms");
  out.Add("netd.bytes_in_per_sync",
          (after.bytes_in - before.bytes_in) / window_syncs, "bytes");
  out.Add("netd.bytes_out_per_sync",
          (after.bytes_out - before.bytes_out) / window_syncs, "bytes");
  out.Add("netd.sessions_per_sync",
          (after.sessions_opened - before.sessions_opened) / window_syncs,
          "count");
  out.Add("netd.backpressure_stalls",
          static_cast<double>(after.backpressure_stalls -
                              before.backpressure_stalls),
          "count");
  AddKernelProbes(stale[0], served, options.config,
                  fsx::TreeSyncParams{}.small_file_threshold, tracer, out);
  return out;
}

}  // namespace perfbench
