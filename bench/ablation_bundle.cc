// Ablation: per-file synchronization vs synchronizing the whole release
// as one bundled stream (the tar form the paper's gcc/emacs data sets
// shipped as). Bundling lets block matches cross file boundaries (a
// function moved between files still matches), but gives up the cheap
// per-file unchanged-skip and makes the session monolithic.
#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/core/session.h"
#include "fsync/workload/bundle.h"

namespace fsx {
namespace {

int Run(bench::JsonReport& report) {
  using bench::Kb;
  ReleaseProfile profile = bench::BenchGccProfile();
  profile.num_files = 80;  // the bundle session is O(total size)
  ReleasePair pair = MakeRelease(profile);
  uint64_t total = bench::CollectionBytes(pair.new_release);
  report.AddWorkload("gcc", pair.new_release.size(), total);
  std::printf("data set: gcc-like, %zu files, %.1f MiB\n\n",
              pair.new_release.size(), total / 1048576.0);

  SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = 64;
  config.min_continuation_block = 16;

  obs::SyncObserver per_file_obs;
  bench::WallTimer per_file_timer;
  auto per_file = SyncCollectionWith(pair.old_release, pair.new_release,
                                     SessionProtocol(config), &per_file_obs);
  if (!per_file.ok()) {
    std::fprintf(stderr, "per-file sync failed: %s\n",
                 per_file.status().ToString().c_str());
    return 1;
  }
  report.Add("per-file sessions")
      .Config("mode", "per-file")
      .Observed(per_file_obs)
      .Rounds(per_file->stats.roundtrips)
      .WallNs(per_file_timer.Ns());

  Bytes old_bundle = BundleCollection(pair.old_release);
  Bytes new_bundle = BundleCollection(pair.new_release);
  SimulatedChannel channel;
  obs::SyncObserver bundle_obs;
  bench::WallTimer bundle_timer;
  auto bundled = SynchronizeFile(old_bundle, new_bundle, config, channel,
                                 &bundle_obs);
  if (!bundled.ok()) {
    std::fprintf(stderr, "bundle sync failed: %s\n",
                 bundled.status().ToString().c_str());
    return 1;
  }
  auto unpacked = UnbundleCollection(bundled->reconstructed);
  if (!unpacked.ok() || *unpacked != pair.new_release) {
    std::fprintf(stderr, "bundle round-trip mismatch\n");
    return 1;
  }
  report.Add("one bundled session")
      .Config("mode", "bundle")
      .Observed(bundle_obs)
      .Rounds(bundled->stats.roundtrips)
      .WallNs(bundle_timer.Ns());

  std::printf("%-28s %12s %12s %12s\n", "mode", "map KB", "delta KB",
              "total KB");
  std::printf("%-28s %12.1f %12.1f %12.1f\n", "per-file sessions",
              Kb(per_file->map_server_to_client_bytes +
                 per_file->map_client_to_server_bytes),
              Kb(per_file->delta_bytes),
              Kb(per_file->stats.total_bytes()));
  std::printf("%-28s %12.1f %12.1f %12.1f\n", "one bundled session",
              Kb(bundled->map_server_to_client_bytes +
                 bundled->map_client_to_server_bytes),
              Kb(bundled->delta_bytes), Kb(bundled->stats.total_bytes()));
  std::printf("\n(bundling finds cross-file matches and drops per-file "
              "headers, but\n pays hash traffic even for regions the "
              "fingerprint skip would have\n covered; which wins depends "
              "on the unchanged-file fraction)\n");
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "ablation_bundle",
      "per-file vs bundled-collection synchronization");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader("Ablation (bundle)",
                          "per-file vs bundled-collection synchronization");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
