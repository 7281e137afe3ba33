// Shared plumbing of the perfbench workloads: run options, the result
// every workload returns, order statistics, the fixed slow-link model,
// and the per-layer kernel probes that run on a workload's own data.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/core/endpoint.h"
#include "fsync/net/channel.h"
#include "fsync/obs/sync_obs.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Mixes the command-line seed into a generator seed, so nearby seeds
/// give unrelated inputs.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

/// Set-up repetitions per run: setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` `reps` times and returns the median wall seconds. The
/// state the last repetition leaves behind is what the run measures.
/// `teardown`, when given, runs untimed between repetitions.
double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          const std::function<void()>& teardown = {});

/// Peak resident set size of this process, MiB.
double PeakRssMb();

uint64_t CollectionBytes(const fsx::Collection& c);

/// The slow link behind `link_s`: modem-class 64 KiB/s down, 16 KiB/s
/// up, 200 ms round trip (the paper's setting, as in bench/tree_sweep).
fsx::LinkModel SlowLink();

/// Worker threads handed to the library: fixed at 4, capped by nproc.
int BenchThreads();

/// The paper's all-techniques session configuration (Table 6.1).
fsx::SyncConfig AllTechniquesConfig();

/// Counters of the session protocol's matching work, summed over the
/// RoundTrace of every driven file.
struct MatchCounts {
  uint64_t hashes_sent = 0;     // global + continuation hashes on the wire
  uint64_t hashes_derived = 0;  // suppressed via decomposition
  uint64_t candidates = 0;
  uint64_t confirmed = 0;
};

/// Drives one file's SyncClientEndpoint / SyncServerEndpoint pair
/// directly (no channel), opening "core.client" / "core.server" spans
/// around every endpoint call. Returns false if the session errors or
/// the reconstruction differs from `f_new`.
bool DriveEndpointPair(const fsx::Bytes& f_old, const fsx::Bytes& f_new,
                       const fsx::SyncConfig& config, Tracer& tracer,
                       MatchCounts& counts);

/// (old, new) contents of every file present in both snapshots with
/// different bytes.
std::vector<std::pair<const fsx::Bytes*, const fsx::Bytes*>> ChangedPairs(
    const fsx::Collection& old_c, const fsx::Collection& new_c);

/// Path churn of one update of a tree, with fixed counts: `renamed`
/// files move to fresh paths, `edited` get 1-6 small clustered edits,
/// `deleted` disappear and `added` new files appear (web pages or C-like
/// source, 64 B - 4 KiB). Which files, and every byte written, come from
/// `seed`. Paths starting with `keep_prefix` are left alone.
struct TreeChurn {
  int renamed = 0;
  int edited = 0;
  int deleted = 0;
  int added = 0;
  bool web = false;
  std::string keep_prefix;
};
fsx::Collection ChurnTree(const fsx::Collection& base, uint64_t seed,
                          const TreeChurn& churn);

/// Kernel throughput of the index, hash, delta and compress layers on a
/// workload's own files (MB/s, MB = 1e6 bytes), each the median of three
/// passes under a "<layer>.<call>" span. `small_limit`: changed or new
/// files up to this size feed the compress probe, as SyncCollectionTree's
/// small-file bundle does.
void AddKernelProbes(const fsx::Collection& old_c,
                     const fsx::Collection& new_c,
                     const fsx::SyncConfig& config, uint64_t small_limit,
                     Tracer& tracer, RunResult& out);


/// Updates drawn from one seed: every run syncs this many, one after
/// another in whole rounds, so a run's figures are medians over several
/// inputs and not the luck of one.
inline constexpr int kUpdatesPerRun = 4;

/// Runs op(k, op_id) for k = 0, 1, ..., kUpdatesPerRun - 1 in turn until
/// `seconds` have passed and the round is complete; op returns false
/// when a check failed. Counts attempted and failed operations.
template <typename Op>
void RunRounds(double seconds, RunResult& out, Op&& op) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (out.attempted % kUpdatesPerRun != 0 || out.attempted == 0 ||
         NowNs() < deadline) {
    const int k = static_cast<int>(out.attempted % kUpdatesPerRun);
    ++out.attempted;
    Tracer::SetThreadOp(out.attempted);
    if (!op(k)) {
      ++out.failed;
    }
  }
}

/// One completed sync, for the end-to-end figures.
struct OpSample {
  double sync_s = 0;    // the sync call alone
  double update_s = 0;  // the whole update the user waits for
  uint64_t bytes = 0;   // size of the new collection
  int update = 0;       // which of the run's updates
};

/// Adds the end-to-end metrics shared by every workload: timings are
/// medians over the run's syncs, traffic the mean over its updates (each
/// synced equally often). `syncs_per_s` is the closed loop's completed
/// syncs per second when set, else 1 / median update time (one client).
struct EndToEnd {
  double setup_s = 0;
  std::vector<OpSample> ops;
  std::vector<fsx::TrafficStats> traffic;  // per update; roundtrips too
  double syncs_per_s = 0;
};
void AddEndToEnd(const EndToEnd& e, RunResult& out);

/// Per-layer figures shared by the workloads. Each is the mean over the
/// run's updates.
double Mean(const std::vector<double>& v);
/// trace.op_ms (median traced update) and trace.layer_share (the share of
/// the timed region covered by layer spans).
void AddTraceShare(const Tracer& tracer, const EndToEnd& e, RunResult& out);
/// core.hashes_sent/derived, core.candidates/confirmed, core.verify_yield.
void AddMatchCounts(const std::vector<MatchCounts>& m, RunResult& out);
/// core.phase_bytes.<phase> for the session phases, both directions.
void AddPhaseBytes(const std::vector<fsx::obs::SyncObserver>& obs,
                   RunResult& out);

/// The latency reported as `client_sync_tail_ms`: p98, or the median
/// below forty samples. daemon-fanout makes 700-950 syncs in a 30 s run,
/// so 14-19 samples lie beyond p98; the other workloads make under forty.
double TailLatency(const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
