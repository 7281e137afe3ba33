// Figure 6.3: adding continuation hashes. The sweep varies the minimum
// block size reached *via continuation hashes* (which cost only a few
// bits because they are checked at one aligned position), while global
// hashes stop at a larger minimum. The leftmost row reproduces the
// figure's leftmost bar: group verification but no continuation.
//
// Expected shape (paper): continuation hashes profitably extend the
// recursion to much smaller blocks (16 bytes or less), reducing total
// cost moderately below the best no-continuation configuration, and the
// best global minimum shifts upward (e.g. 128) once continuation handles
// the fine-grained tail.
#include <cstdio>

#include "bench/bench_util.h"

namespace fsx {
namespace {

int Run(bench::JsonReport& report) {
  using bench::Kb;
  ReleasePair pair = MakeRelease(bench::BenchGccProfile());
  report.AddWorkload("gcc", pair.new_release.size(),
                     bench::CollectionBytes(pair.new_release));
  std::printf("data set: gcc-like, %zu files, %.1f MiB\n\n",
              pair.new_release.size(),
              bench::CollectionBytes(pair.new_release) / 1048576.0);

  std::printf("%-34s %12s %12s %12s\n", "configuration", "map KB",
              "delta KB", "total KB");

  auto run_one = [&](const char* label, uint32_t min_global,
                     uint32_t min_cont, bool use_cont) -> int {
    SyncConfig config;
    config.start_block_size = 2048;
    config.min_block_size = min_global;
    config.min_continuation_block = use_cont ? min_cont : min_global;
    config.use_continuation = use_cont;
    config.verify.group_size = 8;  // group verification throughout
    config.verify.max_batches = 2;
    obs::SyncObserver observer;
    bench::WallTimer timer;
    auto r = SyncCollectionWith(pair.old_release, pair.new_release,
                                SessionProtocol(config), &observer);
    if (!r.ok()) {
      std::fprintf(stderr, "sync failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    report.Add(label)
        .Config("min_block", min_global)
        .Config("min_continuation_block", config.min_continuation_block)
        .Config("use_continuation", use_cont ? "true" : "false")
        .Observed(observer)
        .Rounds(r->stats.roundtrips)
        .WallNs(timer.Ns());
    std::printf("%-34s %12.1f %12.1f %12.1f\n", label,
                Kb(r->map_server_to_client_bytes +
                   r->map_client_to_server_bytes),
                Kb(r->delta_bytes), Kb(r->stats.total_bytes()));
    return 0;
  };

  if (run_one("no continuation, min b=64", 64, 64, false)) return 1;
  for (uint32_t min_global : {128u, 64u}) {
    for (uint32_t min_cont : {32u, 16u, 8u}) {
      char label[64];
      std::snprintf(label, sizeof(label),
                    "continuation to %u, global min %u", min_cont,
                    min_global);
      if (run_one(label, min_global, min_cont, true)) return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "fig6_3",
      "continuation hashes with varying minimum block sizes (gcc)");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader("Figure 6.3",
                          "continuation hashes with varying minimum block "
                          "sizes (gcc data set)");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
