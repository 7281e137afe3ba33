// Table 6.2: cost of updating a replicated web collection, for various
// update frequencies (sync every 1, 2, and 7 days) and methods. The
// paper's collection is 10,000 nightly-recrawled pages; we run a scaled
// collection and report both the measured KB and a per-10,000-pages
// extrapolation for direct comparison with the paper's table.
//
// Expected shape (paper): ours beats rsync by close to a factor of 2;
// savings per page shrink as the gap grows (more changed content), and
// all methods sit far below full/gzip transfer.
#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/workload/web.h"

namespace fsx {
namespace {

int Run(bench::JsonReport& report) {
  using bench::Kb;
  WebProfile profile;
  profile.num_pages = 400;  // scaled from the paper's 10,000
  profile.min_page_bytes = 4 * 1024;  // ~13 KB/page average as in paper
  profile.max_page_bytes = 64 * 1024;
  WebCollectionModel model(profile);
  uint64_t total = bench::CollectionBytes(model.Snapshot(0));
  report.AddWorkload("web", profile.num_pages, total);
  std::printf("collection: %d pages, %.1f MiB (scale factor to paper: "
              "%.1fx pages)\n\n",
              profile.num_pages, total / 1048576.0,
              10000.0 / profile.num_pages);

  std::printf("%-10s %-22s %12s %16s\n", "interval", "method",
              "cost KB", "KB per 10k pages");

  SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = 64;
  config.min_continuation_block = 16;
  config.verify.group_size = 8;
  config.verify.max_batches = 2;
  RsyncParams rsync_params;

  double scale = 10000.0 / profile.num_pages;
  for (int gap : {1, 2, 7}) {
    const Collection& old_snap = model.Snapshot(0);
    const Collection& new_snap = model.Snapshot(gap);

    auto row = [&](const char* method, uint64_t bytes) {
      report.Add(method)
          .Config("interval_days", static_cast<uint64_t>(gap))
          .Total(bytes);
      std::printf("%6d day %-22s %12.1f %16.0f\n", gap, method, Kb(bytes),
                  Kb(bytes) * scale);
    };
    row("uncompressed full",
        CollectionFullTransferBytes(old_snap, new_snap));
    row("compressed full",
        CollectionCompressedTransferBytes(old_snap, new_snap));

    obs::SyncObserver rs_obs;
    bench::WallTimer rs_timer;
    auto rs = SyncCollectionWith(old_snap, new_snap,
                                 RsyncProtocol(rsync_params), &rs_obs);
    if (!rs.ok()) return 1;
    report.Add("rsync (b=700)")
        .Config("interval_days", static_cast<uint64_t>(gap))
        .Observed(rs_obs)
        .Rounds(rs->stats.roundtrips)
        .WallNs(rs_timer.Ns());
    std::printf("%6d day %-22s %12.1f %16.0f\n", gap, "rsync (b=700)",
                Kb(rs->stats.total_bytes()),
                Kb(rs->stats.total_bytes()) * scale);

    obs::SyncObserver ours_obs;
    bench::WallTimer ours_timer;
    auto ours = SyncCollectionWith(old_snap, new_snap,
                                   SessionProtocol(config), &ours_obs);
    if (!ours.ok()) return 1;
    if (ours->reconstructed != new_snap) {
      std::fprintf(stderr, "reconstruction mismatch!\n");
      return 1;
    }
    report.Add("this work")
        .Config("interval_days", static_cast<uint64_t>(gap))
        .Observed(ours_obs)
        .Rounds(ours->stats.roundtrips)
        .WallNs(ours_timer.Ns());
    std::printf("%6d day %-22s %12.1f %16.0f\n", gap, "this work",
                Kb(ours->stats.total_bytes()),
                Kb(ours->stats.total_bytes()) * scale);

    auto bound = CollectionDeltaBytes(old_snap, new_snap, DeltaCodec::kZd);
    if (!bound.ok()) return 1;
    row("zdelta-style (bound)", *bound);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "table6_2",
      "updating a replicated web collection at various frequencies");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Table 6.2", "updating a replicated web collection at various "
                   "frequencies");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
