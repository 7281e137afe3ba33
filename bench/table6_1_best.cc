// Table 6.1: best results using all techniques, for the gcc and emacs
// data sets, against rsync (default and per-file best block size) and the
// two delta compressors.
//
// Expected shape (paper): all-techniques protocol saves a factor of
// ~1.5-2.5 over rsync and lands within ~1.5-2x of the zdelta bound;
// vcdiff is slightly worse than zdelta.
#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/rsync/rsync.h"

namespace fsx {
namespace {

SyncConfig AllTechniquesConfig() {
  SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = 64;
  config.min_continuation_block = 16;
  config.use_continuation = true;
  config.use_decomposable = true;
  config.verify.group_size = 8;
  config.verify.continuation_group_size = 2;
  config.verify.max_batches = 2;
  config.verify.adaptive_groups = true;
  return config;
}

int RunDataset(const char* name, const ReleaseProfile& profile,
               bench::JsonReport& report) {
  using bench::Kb;
  ReleasePair pair = MakeRelease(profile);
  uint64_t total = bench::CollectionBytes(pair.new_release);
  report.AddWorkload(name, pair.new_release.size(), total);
  std::printf("\n--- %s-like data set: %zu files, %.1f MiB ---\n", name,
              pair.new_release.size(), total / 1048576.0);
  std::printf("%-26s %12s %10s\n", "method", "total KB", "vs full");

  auto row = [&](const char* label, uint64_t bytes) {
    report.Add(label).Config("dataset", name).Total(bytes);
    std::printf("%-26s %12.1f %9.2f%%\n", label, Kb(bytes),
                100.0 * bytes / total);
  };
  // Rows run through a channel carry the full per-phase attribution.
  auto observed_row = [&](const char* label,
                          const obs::SyncObserver& observer,
                          const CollectionSyncResult& r, uint64_t ns) {
    report.Add(label)
        .Config("dataset", name)
        .Observed(observer)
        .Rounds(r.stats.roundtrips)
        .WallNs(ns);
    std::printf("%-26s %12.1f %9.2f%%\n", label,
                Kb(r.stats.total_bytes()),
                100.0 * r.stats.total_bytes() / total);
  };

  row("uncompressed full",
      CollectionFullTransferBytes(pair.old_release, pair.new_release));
  row("compressed full",
      CollectionCompressedTransferBytes(pair.old_release,
                                        pair.new_release));

  RsyncParams def;
  obs::SyncObserver rs_obs;
  bench::WallTimer rs_timer;
  auto rs = SyncCollectionWith(pair.old_release, pair.new_release,
                               RsyncProtocol(def), &rs_obs);
  if (!rs.ok()) return 1;
  observed_row("rsync (b=700)", rs_obs, *rs, rs_timer.Ns());

  uint64_t best_total = 0;
  static const Bytes kEmpty;
  for (const auto& [fname, current] : pair.new_release) {
    auto it = pair.old_release.find(fname);
    const Bytes& outdated =
        it != pair.old_release.end() ? it->second : kEmpty;
    if (it != pair.old_release.end() && it->second == current) {
      continue;
    }
    auto best = RsyncBestBlockSize(outdated, current, def);
    if (!best.ok()) return 1;
    best_total += best->stats.total_bytes();
  }
  row("rsync (best b per file)", best_total);

  MultiroundParams mr_params;  // pure recursive partitioning (prior art)
  obs::SyncObserver mr_obs;
  bench::WallTimer mr_timer;
  auto mr = SyncCollectionWith(pair.old_release, pair.new_release,
                               MultiroundProtocol(mr_params), &mr_obs);
  if (!mr.ok()) return 1;
  observed_row("multiround rsync", mr_obs, *mr, mr_timer.Ns());

  CdcSyncParams cdc_params;  // LBFS-style chunk exchange, extra baseline
  obs::SyncObserver cdc_obs;
  bench::WallTimer cdc_timer;
  auto cdc = SyncCollectionWith(pair.old_release, pair.new_release,
                                CdcProtocol(cdc_params), &cdc_obs);
  if (!cdc.ok()) return 1;
  observed_row("cdc / LBFS-style", cdc_obs, *cdc, cdc_timer.Ns());

  obs::SyncObserver ours_obs;
  bench::WallTimer ours_timer;
  auto ours = SyncCollectionWith(pair.old_release, pair.new_release,
                                 SessionProtocol(AllTechniquesConfig()),
                                 &ours_obs);
  if (!ours.ok()) return 1;
  observed_row("this work (all techniques)", ours_obs, *ours,
               ours_timer.Ns());

  auto zd = CollectionDeltaBytes(pair.old_release, pair.new_release,
                                 DeltaCodec::kZd);
  auto vc = CollectionDeltaBytes(pair.old_release, pair.new_release,
                                 DeltaCodec::kVcdiff);
  auto bs = CollectionDeltaBytes(pair.old_release, pair.new_release,
                                 DeltaCodec::kBsdiff);
  if (!zd.ok() || !vc.ok() || !bs.ok()) return 1;
  row("zdelta-style (bound)", *zd);
  row("vcdiff-style (bound)", *vc);
  row("bsdiff-style (bound)", *bs);

  std::printf("ratios: rsync/ours = %.2fx, ours/zdelta = %.2fx, "
              "max roundtrips = %llu\n",
              static_cast<double>(rs->stats.total_bytes()) /
                  ours->stats.total_bytes(),
              static_cast<double>(ours->stats.total_bytes()) / *zd,
              static_cast<unsigned long long>(ours->stats.roundtrips));
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "table6_1", "best results using all techniques (gcc and emacs)");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader("Table 6.1",
                          "best results using all techniques (gcc and "
                          "emacs data sets)");
  if (fsx::RunDataset("gcc", fsx::bench::BenchGccProfile(), report)) {
    return 1;
  }
  if (fsx::RunDataset("emacs", fsx::bench::BenchEmacsProfile(), report)) {
    return 1;
  }
  return report.Write();
}
