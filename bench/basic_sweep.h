// Shared implementation of the Figure 6.1 / 6.2 sweeps: the basic
// protocol (recursive halving + decomposable hashes + per-candidate
// verification) across minimum block sizes, vs rsync and zdelta.
#ifndef FSYNC_BENCH_BASIC_SWEEP_H_
#define FSYNC_BENCH_BASIC_SWEEP_H_

#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/rsync/rsync.h"

namespace fsx {
namespace bench_basic {

SyncConfig BasicConfig(uint32_t min_block) {
  SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = min_block;
  config.min_continuation_block = min_block;  // continuation disabled
  config.use_continuation = false;
  config.use_decomposable = true;
  config.verify.group_size = 1;  // per-candidate verification
  config.verify.max_batches = 1;
  return config;
}

int Run(const ReleaseProfile& profile, const char* dataset,
        bench::JsonReport& report) {
  using bench::Kb;
  ReleasePair pair = MakeRelease(profile);
  uint64_t total = bench::CollectionBytes(pair.new_release);
  report.AddWorkload(dataset, pair.new_release.size(), total);
  std::printf("data set: %s-like, %zu files, %.1f MiB\n\n", dataset,
              pair.new_release.size(), total / 1048576.0);

  std::printf("%-22s %12s %12s %12s %12s\n", "method", "s->c map KB",
              "c->s map KB", "delta KB", "total KB");

  for (uint32_t min_block : {512u, 256u, 128u, 64u, 32u, 16u}) {
    obs::SyncObserver observer;
    bench::WallTimer timer;
    auto r = SyncCollectionWith(pair.old_release, pair.new_release,
                                SessionProtocol(BasicConfig(min_block)),
                                &observer);
    if (!r.ok()) {
      std::fprintf(stderr, "sync failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "basic, min b=%u", min_block);
    report.Add(label)
        .Config("min_block", min_block)
        .Observed(observer)
        .Rounds(r->stats.roundtrips)
        .WallNs(timer.Ns());
    std::printf("%-22s %12.1f %12.1f %12.1f %12.1f\n", label,
                Kb(r->map_server_to_client_bytes),
                Kb(r->map_client_to_server_bytes), Kb(r->delta_bytes),
                Kb(r->stats.total_bytes()));
  }

  RsyncParams def;
  obs::SyncObserver rsync_observer;
  bench::WallTimer rsync_timer;
  auto rs = SyncCollectionWith(pair.old_release, pair.new_release,
                               RsyncProtocol(def), &rsync_observer);
  if (!rs.ok()) {
    return 1;
  }
  report.Add("rsync (b=700)")
      .Config("block_size", 700)
      .Observed(rsync_observer)
      .Rounds(rs->stats.roundtrips)
      .WallNs(rsync_timer.Ns());
  std::printf("%-22s %12s %12s %12s %12.1f\n", "rsync (b=700)", "-", "-",
              "-", Kb(rs->stats.total_bytes()));

  // Idealized rsync: per-file best block size.
  uint64_t best_total = 0;
  {
    static const Bytes kEmpty;
    for (const auto& [name, current] : pair.new_release) {
      auto it = pair.old_release.find(name);
      const Bytes& outdated =
          it != pair.old_release.end() ? it->second : kEmpty;
      if (it != pair.old_release.end() && it->second == current) {
        continue;
      }
      auto best = RsyncBestBlockSize(outdated, current, def);
      if (!best.ok()) {
        return 1;
      }
      best_total += best->stats.total_bytes();
    }
  }
  report.Add("rsync (best b/file)").Total(best_total);
  std::printf("%-22s %12s %12s %12s %12.1f\n", "rsync (best b/file)", "-",
              "-", "-", Kb(best_total));

  auto bound = CollectionDeltaBytes(pair.old_release, pair.new_release,
                                    DeltaCodec::kZd);
  if (!bound.ok()) {
    return 1;
  }
  report.Add("zdelta-style bound").Total(*bound);
  std::printf("%-22s %12s %12s %12s %12.1f\n", "zdelta-style bound", "-",
              "-", "-", Kb(*bound));
  return 0;
}

}  // namespace bench_basic
}  // namespace fsx


#endif  // FSYNC_BENCH_BASIC_SWEEP_H_
