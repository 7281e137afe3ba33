// GB/s-per-core sweep over the sync hot paths, scalar vs hardware
// dispatch: CRC32C (slice-by-4 vs SSE4.2/ARMv8 three-stream), the
// rolling weak-hash scan loop (tabled Adler vs GEAR), batched strong-
// hash verification (scalar MD5 vs 4-lane interleaved), the two
// end-to-end kernels those feed — server signature generation
// (MakeZsyncControl) and client scan (PlanFromControl) — and the paper's
// collection sync (a gcc-like release through SyncCollectionBatched)
// serial vs stepped across the thread pool.
//
// Run with --json[=path] to emit BENCH_throughput_sweep.json
// (fsx-bench-v1, with the per-result "throughput" object). Run with
// --check to enforce the PR acceptance bars as exit status:
//   - HW CRC32C >= 3x slice-by-4 (only on machines exposing a HW tier);
//   - batched MD5 verify >= 1.0x scalar (it must never lose);
//   - GEAR scan >= 1.3x the Adler scan (the config-gated fast weak
//     hash, which is where the e2e client-scan speedup comes from);
//   - e2e client scan under HW dispatch >= 0.9x scalar (neutrality
//     smoke: the weak/strong hashes there never touch CRC32C, so the
//     dispatch layer must be invisible modulo timer noise);
//   - e2e batched collection: the 4-thread run's channel transcript is
//     byte-identical to the serial run's, and its speed >= 0.9x serial
//     (a neutral bar: CI runners may have a single core).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fsync/core/collection.h"
#include "fsync/hash/crc32c.h"
#include "fsync/hash/gear.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"
#include "fsync/multiround/multiround.h"
#include "fsync/net/channel.h"
#include "fsync/simd/crc32c_kernels.h"
#include "fsync/simd/dispatch.h"
#include "fsync/util/random.h"
#include "fsync/workload/release.h"
#include "fsync/zsync/zsync.h"

namespace fsx {
namespace {

constexpr size_t kBufBytes = 8 * 1024 * 1024;  // hot-loop working set
constexpr int kReps = 5;                       // best-of reps per cell

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

Bytes MakeBuffer(Rng& rng, size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.Next();
    for (size_t k = 0; k < 8 && i + k < n; ++k) {
      b[i + k] = static_cast<uint8_t>(v >> (8 * k));
    }
  }
  return b;
}

// Best-of-kReps wall time for `run` (which returns a value to sink).
uint64_t BestOf(const std::function<uint64_t()>& run) {
  uint64_t best = ~uint64_t{0};
  for (int r = 0; r < kReps; ++r) {
    bench::WallTimer t;
    g_sink = g_sink + run();
    uint64_t ns = t.Ns();
    best = ns < best ? ns : best;
  }
  return best;
}

double GibPerS(uint64_t bytes, uint64_t ns) {
  return ns == 0 ? 0.0
                 : static_cast<double>(bytes) * 1e9 /
                       (static_cast<double>(ns) * 1073741824.0);
}

struct Row {
  std::string name;
  std::string tier;  // the variant measured, under config key `axis`
  uint64_t bytes = 0;
  uint64_t ns = 0;
  std::string axis = "dispatch_tier";
  double Rate() const { return GibPerS(bytes, ns); }
};

void Print(const Row& row) {
  std::printf("  %-28s %-8s %8.3f GiB/s\n", row.name.c_str(),
              row.tier.c_str(), row.Rate());
}

// ---- CRC32C: whole-buffer checksum, per dispatch tier. ----
Row BenchCrc(ByteSpan buf, simd::DispatchTier tier) {
  simd::ForceTier(tier);
  Row row{"crc32c", simd::TierName(tier), buf.size(), 0};
  row.ns = BestOf([&] {
    return static_cast<uint64_t>(Crc32cUpdate(~0u, buf));
  });
  simd::ForceTier(std::nullopt);
  return row;
}

// ---- Rolling scan: slide a window over the buffer with no matching
// keys — the per-byte cost every client pays on unmatched data. ----
template <typename Hash>
Row BenchScan(ByteSpan buf, const char* name, uint64_t block_size) {
  std::vector<uint32_t> keys = {0xFFFFFFFFu};  // 32-bit key: ~no hits
  std::vector<uint64_t> pos;
  Row row{name, "scalar", buf.size(), 0};
  row.ns = BestOf([&] {
    ScanForKeys<Hash>(
        buf, block_size, 32, keys, [](size_t, uint64_t) { return false; },
        pos);
    return pos[0];
  });
  return row;
}

// ---- Strong-hash verify: hash n equal-size blocks, scalar vs 4-lane
// batch. ----
Row BenchVerify(ByteSpan buf, uint64_t block_size, bool batched) {
  const size_t n = buf.size() / block_size;
  std::vector<ByteSpan> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    blocks[i] = buf.subspan(i * block_size, block_size);
  }
  std::vector<uint64_t> out(n);
  Row row{"md5-verify", batched ? "batch4" : "scalar", n * block_size, 0};
  row.ns = BestOf([&] {
    if (batched) {
      Md5HashBitsBatch(blocks.data(), n, 64, 0xA11, out.data());
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = Md5::HashBits(blocks[i], 64, 0xA11);
      }
    }
    return out[0];
  });
  return row;
}

// ---- End-to-end kernels: zsync signature generation and client scan
// over a shifted copy (every block matches, at an offset the rolling
// scan must find). ----
Row BenchServerSignature(ByteSpan current, simd::DispatchTier tier) {
  simd::ForceTier(tier);
  ZsyncParams params;
  params.block_size = 2048;
  Row row{"e2e-server-signature", simd::TierName(tier), current.size(), 0};
  row.ns = BestOf([&] {
    auto control = MakeZsyncControl(current, params);
    return control.ok() ? control.value().size() : 0;
  });
  simd::ForceTier(std::nullopt);
  return row;
}

Row BenchClientScan(ByteSpan outdated, ByteSpan control,
                    simd::DispatchTier tier) {
  simd::ForceTier(tier);
  Row row{"e2e-client-scan", simd::TierName(tier), outdated.size(), 0};
  row.ns = BestOf([&] {
    auto plan = PlanFromControl(outdated, control);
    return plan.ok() ? plan.value().sources.size() : 0;
  });
  simd::ForceTier(std::nullopt);
  return row;
}

// ---- Full multiround session, Adler vs GEAR weak hash: the one knob
// that changes e2e client-scan bandwidth (both runs reconstruct the
// identical file; only the weak-hash wire values differ). ----
Row BenchMultiround(ByteSpan outdated, ByteSpan current, bool use_gear) {
  MultiroundParams params;
  params.use_gear = use_gear;
  Row row{"e2e-multiround", use_gear ? "gear" : "adler", outdated.size(),
          0};
  row.ns = BestOf([&] {
    SimulatedChannel channel;
    auto r = MultiroundSynchronize(outdated, current, params, channel);
    return r.ok() ? r.value().reconstructed.size() : 0;
  });
  return row;
}

// ---- Collection sync: a gcc-like release through SyncCollectionBatched
// with every paper technique on, its per-file sessions stepped on
// `threads` pool lanes. `transcript` receives the channel transcript of
// the last rep; it must not depend on the thread count. ----
Row BenchBatchedCollection(
    const ReleasePair& pair, int threads,
    std::vector<SimulatedChannel::TranscriptEntry>& transcript) {
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
  config.num_threads = threads;
  Row row{"e2e-batched-collection", std::to_string(threads),
          bench::CollectionBytes(pair.new_release), 0, "num_threads"};
  row.ns = BestOf([&] {
    SimulatedChannel channel;
    channel.EnableTranscript();
    auto r = SyncCollectionBatched(pair.old_release, pair.new_release,
                                   config, channel);
    const bool ok = r.ok() && r->reconstructed == pair.new_release;
    transcript = ok ? channel.transcript()
                    : std::vector<SimulatedChannel::TranscriptEntry>();
    return ok ? channel.stats().total_bytes() : 0;
  });
  return row;
}

bool SameTranscript(
    const std::vector<SimulatedChannel::TranscriptEntry>& a,
    const std::vector<SimulatedChannel::TranscriptEntry>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t m = 0; m < a.size(); ++m) {
    if (a[m].dir != b[m].dir || a[m].payload != b[m].payload) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }
  bench::JsonReport report("throughput_sweep",
                           "Hot-path GB/s per core, scalar vs hardware "
                           "dispatch");
  report.ParseArgs(argc, argv);
  bench::PrintHeader("throughput_sweep",
                     "hot-path bandwidth: CRC32C / scan / verify / e2e");
  std::printf("dispatch: %s\n\n", simd::DescribeDispatch().c_str());

  Rng rng(0xBE7C4);
  Bytes buf = MakeBuffer(rng, kBufBytes);
  report.AddWorkload("synthetic-uniform", 1, buf.size());

  std::vector<Row> rows;
  auto add = [&](Row row) {
    Print(row);
    report.Add(row.name)
        .Config(row.axis, row.tier)
        .Throughput(row.bytes, row.ns)
        .Total(0);
    rows.push_back(std::move(row));
  };
  auto rate_of = [&](const char* name, const char* tier) {
    for (const Row& r : rows) {
      if (r.name == name && r.tier == tier) {
        return r.Rate();
      }
    }
    return 0.0;
  };

  for (simd::DispatchTier tier : simd::AvailableTiers()) {
    add(BenchCrc(buf, tier));
  }
  add(BenchScan<AdlerScanHash>(buf, "scan-adler", 2048));
  add(BenchScan<GearScanHash>(buf, "scan-gear", 2048));
  add(BenchVerify(buf, 2048, /*batched=*/false));
  add(BenchVerify(buf, 2048, /*batched=*/true));

  // The e2e pair syncs `buf` against a copy shifted by half a block, so
  // every block exists in the haystack but never on its natural
  // boundary — the rolling scan runs at full per-byte cost.
  Bytes shifted(buf.begin() + 1024, buf.end());
  ZsyncParams params;
  params.block_size = 2048;
  auto control = MakeZsyncControl(buf, params);
  for (simd::DispatchTier tier : simd::AvailableTiers()) {
    add(BenchServerSignature(buf, tier));
    if (control.ok()) {
      add(BenchClientScan(shifted, control.value(), tier));
    }
  }
  add(BenchMultiround(shifted, buf, /*use_gear=*/false));
  add(BenchMultiround(shifted, buf, /*use_gear=*/true));

  const ReleasePair release = MakeRelease(GccLikeProfile());
  std::vector<SimulatedChannel::TranscriptEntry> serial_transcript;
  std::vector<SimulatedChannel::TranscriptEntry> threaded_transcript;
  add(BenchBatchedCollection(release, 1, serial_transcript));
  add(BenchBatchedCollection(release, 4, threaded_transcript));

  int rc = report.Write();
  if (check && rc == 0) {
    const char* hw_tier = nullptr;
    for (simd::DispatchTier tier : simd::AvailableTiers()) {
      if (tier != simd::DispatchTier::kScalar) {
        hw_tier = simd::TierName(tier);
      }
    }
    auto gate = [&](const char* what, double got, double bar) {
      bool ok = got >= bar;
      std::printf("check: %-34s %5.2fx (bar %.2fx) %s\n", what, got, bar,
                  ok ? "ok" : "FAIL");
      if (!ok) rc = 1;
    };
    if (hw_tier != nullptr) {
      gate("crc32c hw vs scalar",
           rate_of("crc32c", hw_tier) / rate_of("crc32c", "scalar"), 3.0);
      gate("e2e-client-scan hw vs scalar",
           rate_of("e2e-client-scan", hw_tier) /
               rate_of("e2e-client-scan", "scalar"),
           0.9);
    } else {
      std::printf("check: no hardware tier on this machine; CRC/e2e "
                  "dispatch gates skipped\n");
    }
    gate("scan gear vs adler",
         rate_of("scan-gear", "scalar") / rate_of("scan-adler", "scalar"),
         1.3);
    gate("md5 batch4 vs scalar",
         rate_of("md5-verify", "batch4") / rate_of("md5-verify", "scalar"),
         1.0);
    const bool same = !serial_transcript.empty() &&
                      SameTranscript(serial_transcript, threaded_transcript);
    std::printf("check: %-34s %s\n", "e2e-batched-collection transcripts",
                same ? "identical ok" : "DIVERGED FAIL");
    if (!same) rc = 1;
    gate("e2e-batched-collection 4 vs 1 thr",
         rate_of("e2e-batched-collection", "4") /
             rate_of("e2e-batched-collection", "1"),
         0.9);
  }
  return rc;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) { return fsx::Main(argc, argv); }
