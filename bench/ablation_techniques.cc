// Ablation: the contribution of each technique that DESIGN.md calls out.
// Starts from the all-techniques configuration and removes one technique
// at a time; also sweeps candidate-hash width (global_extra_bits), the
// knob behind the paper's "log2(n/b)+extra bits per hash" formula.
#include <cstdio>

#include "bench/bench_util.h"

namespace fsx {
namespace {

SyncConfig FullConfig() {
  SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = 64;
  config.min_continuation_block = 16;
  config.verify.group_size = 8;
  config.verify.continuation_group_size = 2;
  config.verify.max_batches = 2;
  return config;
}

int Run(bench::JsonReport& report) {
  using bench::Kb;
  ReleasePair pair = MakeRelease(bench::BenchGccProfile());
  report.AddWorkload("gcc", pair.new_release.size(),
                     bench::CollectionBytes(pair.new_release));
  std::printf("data set: gcc-like, %zu files, %.1f MiB\n\n",
              pair.new_release.size(),
              bench::CollectionBytes(pair.new_release) / 1048576.0);

  std::printf("%-34s %12s %12s %12s\n", "variant", "map KB", "delta KB",
              "total KB");
  auto run_one = [&](const char* label, const SyncConfig& config) -> int {
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
        .Config("min_block", config.min_block_size)
        .Config("group_size",
                static_cast<uint64_t>(config.verify.group_size))
        .Observed(observer)
        .Rounds(r->stats.roundtrips)
        .WallNs(timer.Ns());
    std::printf("%-34s %12.1f %12.1f %12.1f\n", label,
                Kb(r->map_server_to_client_bytes +
                   r->map_client_to_server_bytes),
                Kb(r->delta_bytes), Kb(r->stats.total_bytes()));
    return 0;
  };

  if (run_one("all techniques", FullConfig())) return 1;

  SyncConfig no_decomp = FullConfig();
  no_decomp.use_decomposable = false;
  if (run_one("- decomposable hashes", no_decomp)) return 1;

  SyncConfig no_cont = FullConfig();
  no_cont.use_continuation = false;
  no_cont.min_continuation_block = no_cont.min_block_size;
  if (run_one("- continuation hashes", no_cont)) return 1;

  SyncConfig no_groups = FullConfig();
  no_groups.verify.group_size = 1;
  no_groups.verify.continuation_group_size = 1;
  no_groups.verify.max_batches = 1;
  if (run_one("- group verification", no_groups)) return 1;

  SyncConfig one_round = FullConfig();
  one_round.max_roundtrips = 2;
  if (run_one("- recursion (2-roundtrip cap)", one_round)) return 1;

  SyncConfig local = FullConfig();
  local.local_radius = 2;
  local.continuation_bits = 10;
  if (run_one("+ local hashes (radius 2)", local)) return 1;

  std::printf("\ncandidate hash width sweep (extra bits beyond log2 n):\n");
  for (int extra : {2, 4, 8, 12, 16}) {
    SyncConfig c = FullConfig();
    c.global_extra_bits = extra;
    char label[48];
    std::snprintf(label, sizeof(label), "extra_bits=%d", extra);
    if (run_one(label, c)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "ablation_techniques",
      "per-technique contribution and hash-width sweep");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader("Ablation",
                          "per-technique contribution and hash-width sweep");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
