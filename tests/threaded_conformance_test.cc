// Pins the determinism contract: `num_threads` is a host-side execution
// knob, so running any protocol with a thread pool must produce wire
// traffic — every message, byte for byte, in order — and results
// identical to the serial run. Compares full channel transcripts across
// thread counts for all registered protocols, then repeats the whole
// differential invariant sweep threaded, and pins the multiplexed
// collection drivers (batched and tree, with an observer and with a
// shared bounded cache) the same way. Labeled `conformance` (and run
// under TSAN in CI, where the transcript comparison doubles as a data
// race driver for the parallel hot paths).
#include <gtest/gtest.h>

#include <vector>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/broadcast.h"
#include "fsync/core/collection.h"
#include "fsync/core/protocol.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/differential.h"
#include "fsync/util/random.h"
#include "fsync/workload/release.h"
#include "fsync/workload/tree.h"

namespace fsx {
namespace {

constexpr int kThreads = 4;

// Shapes that exercise every matching path: heavy scanning, tail blocks,
// empties, and near-identical files.
std::vector<CorpusPair> TranscriptCorpus(uint64_t seed) {
  std::vector<CorpusPair> corpus;
  for (CorpusShape shape : AllCorpusShapes()) {
    corpus.push_back(MakeCorpusPair(shape, seed));
  }
  return corpus;
}

TEST(ThreadedConformance, RegistriesPairUp) {
  const auto& serial = ConformanceProtocols();
  std::vector<ProtocolEntry> threaded =
      ThreadedConformanceProtocols(kThreads);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, threaded[i].name);
  }
}

TEST(ThreadedConformance, WireTrafficBitIdenticalAcrossThreadCounts) {
  const uint64_t seed = SeedFromEnv(29);
  const auto& serial = ConformanceProtocols();
  std::vector<ProtocolEntry> threaded =
      ThreadedConformanceProtocols(kThreads);
  for (const CorpusPair& pair : TranscriptCorpus(seed)) {
    for (size_t p = 0; p < serial.size(); ++p) {
      SimulatedChannel ch1;
      ch1.EnableTranscript();
      auto r1 = serial[p].run(pair.f_old, pair.f_new, ch1, nullptr);
      SimulatedChannel chn;
      chn.EnableTranscript();
      auto rn = threaded[p].run(pair.f_old, pair.f_new, chn, nullptr);

      SCOPED_TRACE(serial[p].name + " / " + pair.Label() +
                   " FSX_SEED=" + std::to_string(seed));
      ASSERT_EQ(r1.ok(), rn.ok());
      if (!r1.ok()) {
        continue;
      }
      EXPECT_EQ(r1->reconstructed, rn->reconstructed);
      EXPECT_EQ(r1->stats.total_bytes(), rn->stats.total_bytes());
      EXPECT_EQ(r1->stats.roundtrips, rn->stats.roundtrips);
      EXPECT_EQ(r1->fell_back, rn->fell_back);
      EXPECT_EQ(r1->rounds, rn->rounds);

      const auto& t1 = ch1.transcript();
      const auto& tn = chn.transcript();
      ASSERT_EQ(t1.size(), tn.size()) << "message count diverged";
      for (size_t m = 0; m < t1.size(); ++m) {
        ASSERT_EQ(static_cast<int>(t1[m].dir), static_cast<int>(tn[m].dir))
            << "message " << m;
        ASSERT_EQ(t1[m].payload, tn[m].payload)
            << "payload of message " << m << " diverged";
      }
    }
  }
}

TEST(ThreadedConformance, DifferentialSweepPassesThreaded) {
  // The full invariant sweep (reconstruction, accounting, drained
  // channel, traffic bounds, cross-protocol agreement) with every
  // protocol running on the pool.
  const uint64_t seed = SeedFromEnv(3);
  std::vector<CorpusPair> corpus = MakeConformanceCorpus(1, seed);
  std::vector<ProtocolEntry> threaded =
      ThreadedConformanceProtocols(kThreads);
  DifferentialReport report = RunDifferential(corpus, threaded);
  EXPECT_TRUE(report.ok()) << "FSX_SEED=" << seed << "\n"
                           << report.Summary();
  EXPECT_EQ(report.runs, corpus.size() * threaded.size());
}

TEST(ThreadedConformance, HashCastPayloadIdenticalAcrossThreadCounts) {
  // The broadcast builder takes num_threads as an argument (it has no
  // params struct); its cast payload and the client's map must not
  // depend on it.
  const uint64_t seed = SeedFromEnv(41);
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, seed);
  HashCastConfig config;
  auto serial_cast = BuildHashCast(pair.f_new, config, 1);
  auto threaded_cast = BuildHashCast(pair.f_new, config, kThreads);
  ASSERT_TRUE(serial_cast.ok() && threaded_cast.ok());
  EXPECT_EQ(*serial_cast, *threaded_cast);

  auto serial_map = ApplyHashCast(pair.f_old, *serial_cast, 1);
  auto threaded_map = ApplyHashCast(pair.f_old, *serial_cast, kThreads);
  ASSERT_TRUE(serial_map.ok() && threaded_map.ok());
  ASSERT_EQ(serial_map->ranges.size(), threaded_map->ranges.size());
  for (size_t i = 0; i < serial_map->ranges.size(); ++i) {
    EXPECT_EQ(serial_map->ranges[i].begin, threaded_map->ranges[i].begin);
    EXPECT_EQ(serial_map->ranges[i].length,
              threaded_map->ranges[i].length);
    EXPECT_EQ(serial_map->ranges[i].src, threaded_map->ranges[i].src);
  }
}

// ---- Collection drivers: the multiplexed per-file sessions step across
// the pool, with an observer attached, and must not change a byte. ----

// Everything a collection sync leaves behind that must not depend on the
// thread count.
struct CollectionRun {
  std::vector<SimulatedChannel::TranscriptEntry> transcript;
  Collection reconstructed;
  uint64_t delta_bytes = 0;
  obs::SyncObserver::State observed;
  cache::CacheStats cache_stats;
};

void ExpectSameRun(const CollectionRun& a, const CollectionRun& b) {
  EXPECT_EQ(a.reconstructed, b.reconstructed);
  EXPECT_EQ(a.delta_bytes, b.delta_bytes);
  ASSERT_EQ(a.transcript.size(), b.transcript.size())
      << "message count diverged";
  for (size_t m = 0; m < a.transcript.size(); ++m) {
    ASSERT_EQ(static_cast<int>(a.transcript[m].dir),
              static_cast<int>(b.transcript[m].dir))
        << "message " << m;
    ASSERT_EQ(a.transcript[m].payload, b.transcript[m].payload)
        << "payload of message " << m << " diverged";
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(a.observed.bytes[p][d], b.observed.bytes[p][d])
          << "phase " << p << " direction " << d;
    }
  }
  for (int e = 0; e < obs::kNumEvents; ++e) {
    if (e == static_cast<int>(obs::Event::kCacheCpuSavedNs)) {
      continue;  // a wall-clock measurement, not a count
    }
    EXPECT_EQ(a.observed.events[e], b.observed.events[e]) << "event " << e;
  }
  // Every cache statistic but cpu_saved_ns (measured wall time).
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
  EXPECT_EQ(a.cache_stats.insertions, b.cache_stats.insertions);
  EXPECT_EQ(a.cache_stats.bytes_saved, b.cache_stats.bytes_saved);
  EXPECT_EQ(a.cache_stats.entries, b.cache_stats.entries);
  EXPECT_EQ(a.cache_stats.bytes_used, b.cache_stats.bytes_used);
  EXPECT_EQ(a.cache_stats.dedup_blocks, b.cache_stats.dedup_blocks);
  EXPECT_EQ(a.cache_stats.dedup_bytes_saved,
            b.cache_stats.dedup_bytes_saved);
}

// A gcc-like release pair, scaled down to keep the TSan job quick.
ReleasePair SmallRelease(uint64_t seed) {
  ReleaseProfile profile = GccLikeProfile();
  profile.seed = seed;
  profile.num_files = 48;
  profile.max_file_bytes = 40 * 1024;
  return MakeRelease(profile);
}

// The paper's all-techniques configuration (Table 6.1).
SyncConfig AllTechniques(int num_threads) {
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
  config.num_threads = num_threads;
  return config;
}

// A tree whose edited files sit above the small-file threshold, so the
// tree driver runs multiplexed sessions beside its manifest walk.
TreePair LargeFileTree(uint64_t seed) {
  TreeChurnProfile profile = ReleaseTreeProfile(160);
  profile.seed = seed;
  profile.min_file_bytes = 20 * 1024;
  profile.max_file_bytes = 48 * 1024;
  profile.frac_unchanged = 0.80;
  profile.frac_edited = 0.15;
  return MakeTreeWorkload(profile);
}

// Runs the batched driver; `cache` (optional, bounded) serves a cold and
// then a warm sync, and the warm one is returned.
CollectionRun RunBatched(const ReleasePair& pair, int threads,
                         cache::SyncCache* cache) {
  CollectionRun run;
  for (int pass = 0; pass < (cache != nullptr ? 2 : 1); ++pass) {
    SimulatedChannel channel;
    channel.EnableTranscript();
    obs::SyncObserver observer;
    auto r = SyncCollectionBatched(pair.old_release, pair.new_release,
                                   AllTechniques(threads), channel,
                                   &observer, cache);
    EXPECT_TRUE(r.ok()) << r.status().message();
    if (!r.ok()) {
      return run;
    }
    EXPECT_EQ(r->reconstructed, pair.new_release);
    run.transcript = channel.transcript();
    run.reconstructed = std::move(r->reconstructed);
    run.delta_bytes = r->delta_bytes;
    run.observed = observer.Snapshot();
  }
  if (cache != nullptr) {
    run.cache_stats = cache->Stats();
  }
  return run;
}

CollectionRun RunTree(const TreePair& pair, int threads,
                      cache::SyncCache* cache) {
  CollectionRun run;
  TreeSyncParams params;
  params.config = AllTechniques(threads);
  params.cache = cache;
  for (int pass = 0; pass < (cache != nullptr ? 2 : 1); ++pass) {
    SimulatedChannel channel;
    channel.EnableTranscript();
    obs::SyncObserver observer;
    auto r = SyncCollectionTree(pair.old_tree, pair.new_tree, params,
                                channel, &observer);
    EXPECT_TRUE(r.ok()) << r.status().message();
    if (!r.ok()) {
      return run;
    }
    EXPECT_EQ(r->reconstructed, pair.new_tree);
    EXPECT_GT(r->files_sessioned, 0u) << "no multiplexed session ran";
    run.transcript = channel.transcript();
    run.reconstructed = std::move(r->reconstructed);
    run.delta_bytes = r->delta_bytes;
    run.observed = observer.Snapshot();
  }
  if (cache != nullptr) {
    run.cache_stats = cache->Stats();
  }
  return run;
}

TEST(ThreadedConformance, BatchedCollectionIdenticalAcrossThreadCounts) {
  const uint64_t seed = SeedFromEnv(83);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  ReleasePair pair = SmallRelease(seed);
  CollectionRun serial = RunBatched(pair, 1, nullptr);
  CollectionRun threaded = RunBatched(pair, kThreads, nullptr);
  EXPECT_GT(serial.delta_bytes, 0u);
  ExpectSameRun(serial, threaded);
}

TEST(ThreadedConformance, TreeCollectionIdenticalAcrossThreadCounts) {
  const uint64_t seed = SeedFromEnv(89);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  TreePair pair = LargeFileTree(seed);
  CollectionRun serial = RunTree(pair, 1, nullptr);
  CollectionRun threaded = RunTree(pair, kThreads, nullptr);
  ExpectSameRun(serial, threaded);
}

TEST(ThreadedConformance, CachedCollectionsIdenticalAcrossThreadCounts) {
  // A shared bounded cache: hits, misses, evictions and the LRU's
  // contents must not depend on the thread count either. The small bound
  // is below the working set (every warm lookup misses and inserts
  // evict); the large one holds it (the warm sync is served from cache).
  const uint64_t seed = SeedFromEnv(97);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  ReleasePair release = SmallRelease(seed);
  TreePair tree = LargeFileTree(seed);
  for (uint64_t cache_bytes : {uint64_t{24} << 10, uint64_t{1} << 20}) {
    SCOPED_TRACE("cache bytes " + std::to_string(cache_bytes));
    const bool holds_working_set = cache_bytes >= (uint64_t{1} << 20);
    {
      SCOPED_TRACE("batched");
      cache::SyncCache serial_cache(cache_bytes);
      cache::SyncCache threaded_cache(cache_bytes);
      CollectionRun serial = RunBatched(release, 1, &serial_cache);
      CollectionRun threaded = RunBatched(release, kThreads, &threaded_cache);
      EXPECT_GT(holds_working_set ? serial.cache_stats.hits
                                  : serial.cache_stats.evictions,
                0u);
      ExpectSameRun(serial, threaded);
    }
    {
      SCOPED_TRACE("tree");
      cache::SyncCache serial_cache(cache_bytes);
      cache::SyncCache threaded_cache(cache_bytes);
      CollectionRun serial = RunTree(tree, 1, &serial_cache);
      CollectionRun threaded = RunTree(tree, kThreads, &threaded_cache);
      EXPECT_GT(holds_working_set ? serial.cache_stats.hits
                                  : serial.cache_stats.evictions,
                0u);
      ExpectSameRun(serial, threaded);
    }
  }
}

}  // namespace
}  // namespace fsx
