// Mirroring a software release: synchronize a whole source tree from an
// old release to a new one (the paper's gcc/emacs scenario), comparing
// the multi-round protocol against rsync, plain compressed transfer, and
// the delta-compression lower bound.
#include <cstdio>

#include "fsync/core/collection.h"
#include "fsync/workload/release.h"

int main() {
  using namespace fsx;

  ReleaseProfile profile = GccLikeProfile();
  profile.num_files = 80;  // keep the demo quick; bump for bigger runs
  std::printf("generating release pair (%d files)...\n", profile.num_files);
  ReleasePair pair = MakeRelease(profile);

  uint64_t total_new = 0;
  for (const auto& [name, data] : pair.new_release) {
    total_new += data.size();
  }
  std::printf("new release: %d files, %.1f MiB\n\n",
              static_cast<int>(pair.new_release.size()),
              total_new / 1048576.0);

  auto print_row = [&](const char* label, uint64_t bytes,
                       uint64_t roundtrips) {
    std::printf("%-28s %10.1f KiB   %5.2f%% of full   rt=%llu\n", label,
                bytes / 1024.0, 100.0 * bytes / total_new,
                static_cast<unsigned long long>(roundtrips));
  };

  print_row("full transfer",
            CollectionFullTransferBytes(pair.old_release, pair.new_release),
            1);
  print_row("compressed transfer",
            CollectionCompressedTransferBytes(pair.old_release,
                                              pair.new_release),
            1);

  RsyncParams rsync_params;  // classic defaults (700-byte blocks)
  auto rsync_result = SyncCollectionWith(pair.old_release, pair.new_release,
                                         RsyncProtocol(rsync_params));
  if (!rsync_result.ok()) {
    std::fprintf(stderr, "rsync failed: %s\n",
                 rsync_result.status().ToString().c_str());
    return 1;
  }
  print_row("rsync (b=700)", rsync_result->stats.total_bytes(),
            rsync_result->stats.roundtrips);

  auto multiround = SyncCollectionWith(pair.old_release, pair.new_release,
                                       MultiroundProtocol());
  if (!multiround.ok()) {
    std::fprintf(stderr, "multiround failed: %s\n",
                 multiround.status().ToString().c_str());
    return 1;
  }
  print_row("multiround rsync", multiround->stats.total_bytes(),
            multiround->stats.roundtrips);

  SyncConfig config;
  auto ours = SyncCollectionWith(pair.old_release, pair.new_release,
                                 SessionProtocol(config));
  if (!ours.ok()) {
    std::fprintf(stderr, "sync failed: %s\n",
                 ours.status().ToString().c_str());
    return 1;
  }
  print_row("this library", ours->stats.total_bytes(),
            ours->stats.roundtrips);

  auto bound = CollectionDeltaBytes(pair.old_release, pair.new_release,
                                    DeltaCodec::kZd);
  if (bound.ok()) {
    print_row("delta lower bound (zd)", *bound, 1);
  }

  std::printf("\nverification: %s; %llu/%llu files unchanged\n",
              ours->reconstructed == pair.new_release ? "all files match"
                                                      : "MISMATCH",
              static_cast<unsigned long long>(ours->files_unchanged),
              static_cast<unsigned long long>(ours->files_total));
  return ours->reconstructed == pair.new_release ? 0 : 1;
}
