// Figure 6.4: match-verification strategies on the gcc data set. Compares
// the trivial scheme (one 16-bit hash per candidate, one batch) against
// optimized group testing with 1, 2, and 3 verification batches per
// round, and an aggressive large-group variant.
//
// Expected shape (paper): group verification beats trivial verification;
// almost all of the benefit arrives with one or two batches; being very
// aggressive about group size does not pay.
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

  std::printf("%-38s %10s %12s %12s\n", "verification strategy",
              "rt (max)", "c->s map KB", "total KB");

  struct Strategy {
    const char* label;
    int group_size;
    int batches;
    int verify_bits;
    bool adaptive;
  };
  const Strategy strategies[] = {
      {"trivial: 16-bit per candidate", 1, 1, 16, false},
      {"groups of 4, 1 batch", 4, 1, 16, false},
      {"groups of 8, 2 batches (salvage)", 8, 2, 16, false},
      {"groups of 8, 3 batches (salvage)", 8, 3, 16, false},
      {"adaptive groups, 2 batches", 8, 2, 16, true},
      {"aggressive: groups of 32, 3 batches", 32, 3, 16, false},
  };
  for (const Strategy& s : strategies) {
    SyncConfig config;
    config.start_block_size = 2048;
    config.min_block_size = 64;
    config.min_continuation_block = 16;
    config.verify.group_size = s.group_size;
    config.verify.continuation_group_size =
        std::max(1, s.group_size / 4);
    config.verify.max_batches = s.batches;
    config.verify.verify_bits = s.verify_bits;
    config.verify.adaptive_groups = s.adaptive;
    obs::SyncObserver observer;
    bench::WallTimer timer;
    auto r = SyncCollectionWith(pair.old_release, pair.new_release,
                                SessionProtocol(config), &observer);
    if (!r.ok()) {
      std::fprintf(stderr, "sync failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    report.Add(s.label)
        .Config("group_size", static_cast<uint64_t>(s.group_size))
        .Config("max_batches", static_cast<uint64_t>(s.batches))
        .Config("verify_bits", static_cast<uint64_t>(s.verify_bits))
        .Config("adaptive_groups", s.adaptive ? "true" : "false")
        .Observed(observer)
        .Rounds(r->stats.roundtrips)
        .WallNs(timer.Ns());
    std::printf("%-38s %10llu %12.1f %12.1f\n", s.label,
                static_cast<unsigned long long>(r->stats.roundtrips),
                Kb(r->map_client_to_server_bytes),
                Kb(r->stats.total_bytes()));
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "fig6_4", "match-verification strategies (gcc data set)");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Figure 6.4", "match-verification strategies (gcc data set)");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
