// The three workloads and the canonical metric lists they report into.
// Every run prints every metric of its kind (end-to-end untraced,
// per-layer traced); a layer a workload leaves idle reads 0.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

RunResult RunReleaseUpdate(const RunOptions& opt, Tracer& tracer);
RunResult RunTreeMirror(const RunOptions& opt, Tracer& tracer);
RunResult RunDaemonFanout(const RunOptions& opt, Tracer& tracer);

struct MetricName {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricName>& EndToEndMetrics() {
  static const std::vector<MetricName> kList = {
      {"setup_s", "s"},
      {"sync_mb_per_s", "MB/s"},
      {"wire_bytes", "bytes"},
      {"rounds", "count"},
      {"link_s", "s"},
      {"update_s", "s"},
      {"syncs_per_s", "1/s"},
      {"client_sync_p50_ms", "ms"},
      {"client_sync_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kList;
}

inline const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> kList = {
      {"trace.op_ms", "ms"},
      {"trace.layer_share", "ratio"},
      {"trace.sync_p99_ms", "ms"},
      {"core.client_ms", "ms"},
      {"core.server_ms", "ms"},
      {"core.hashes_sent", "count"},
      {"core.hashes_derived", "count"},
      {"core.candidates", "count"},
      {"core.confirmed", "count"},
      {"core.verify_yield", "ratio"},
      {"core.phase_bytes.handshake", "bytes"},
      {"core.phase_bytes.candidates", "bytes"},
      {"core.phase_bytes.verification", "bytes"},
      {"core.phase_bytes.continuation", "bytes"},
      {"core.phase_bytes.literals", "bytes"},
      {"core.phase_bytes.delta", "bytes"},
      {"core.phase_bytes.fallback", "bytes"},
      {"core.files_unchanged", "count"},
      {"core.files_sessioned", "count"},
      {"core.files_new", "count"},
      {"index.scan_mb_per_s", "MB/s"},
      {"hash.md5_mb_per_s", "MB/s"},
      {"delta.zd_encode_mb_per_s", "MB/s"},
      {"delta.delta_bytes", "bytes"},
      {"compress.mb_per_s", "MB/s"},
      {"reconcile.manifest_ms", "ms"},
      {"reconcile.diff_ms", "ms"},
      {"reconcile.manifest_bytes", "bytes"},
      {"reconcile.manifest_rounds", "count"},
      {"core.tree.files_adopted", "count"},
      {"core.tree.files_small", "count"},
      {"core.tree.files_sessioned", "count"},
      {"store.load_ms", "ms"},
      {"store.apply_ms", "ms"},
      {"store.vfs_opens", "count"},
      {"store.vfs_bytes_written", "bytes"},
      {"store.fsyncs", "count"},
      {"store.renames", "count"},
      {"store.unlinks", "count"},
      {"store.files_committed", "count"},
      {"store.files_deleted", "count"},
      {"netd.loop_cpu_ms_per_sync", "ms"},
      {"netd.server_cpu_ms_per_sync", "ms"},
      {"netd.client_cpu_ms_per_sync", "ms"},
      {"netd.bytes_in_per_sync", "bytes"},
      {"netd.bytes_out_per_sync", "bytes"},
      {"netd.sessions_per_sync", "count"},
      {"netd.backpressure_stalls", "count"},
  };
  return kList;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
