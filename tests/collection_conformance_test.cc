// Collection-level conformance: every registered per-file protocol,
// driven through SyncCollectionWith over one small mixed collection
// (unchanged, edited, new, deleted, new-empty and held-empty files). Each
// run must reconstruct the server's snapshot, its observer's phase sums
// must equal the returned stats (invariant 6 at collection level), and
// the pool width must change nothing but wall time. Labeled
// `conformance;par`, so it also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <string>

#include "fsync/core/collection.h"
#include "fsync/core/protocol.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

constexpr int kThreads = 4;

struct MixedCollection {
  uint64_t seed = 0;
  Collection client;
  Collection server;
  uint64_t held_equal = 0;  // server files the client holds byte-equal
  uint64_t absent = 0;      // server files the client lacks
};

MixedCollection MakeMixedCollection() {
  MixedCollection m;
  m.seed = SeedFromEnv(0xC011EC7);
  Rng rng(m.seed);
  for (int i = 0; i < 2; ++i) {
    Bytes content = SynthSourceFile(rng, 3000 + rng.Uniform(12000));
    m.client["same/" + std::to_string(i)] = content;
    m.server["same/" + std::to_string(i)] = content;
  }
  m.client["same/empty"] = {};
  m.server["same/empty"] = {};
  m.held_equal = 3;
  for (int i = 0; i < 4; ++i) {
    Bytes content = SynthSourceFile(rng, 4000 + rng.Uniform(16000));
    EditProfile edits;
    edits.num_edits = static_cast<int>(rng.UniformInt(1, 8));
    m.server["edit/" + std::to_string(i)] = ApplyEdits(content, edits, rng);
    m.client["edit/" + std::to_string(i)] = std::move(content);
  }
  m.client["edit/was-empty"] = {};
  m.server["edit/was-empty"] = SynthSourceFile(rng, 5000);
  m.server["new/file"] = SynthSourceFile(rng, 9000);
  m.server["new/empty"] = {};
  m.absent = 2;
  m.client["gone/file"] = SynthSourceFile(rng, 6000);
  return m;
}

void ExpectSameRun(const CollectionSyncResult& a,
                   const CollectionSyncResult& b) {
  EXPECT_EQ(a.reconstructed, b.reconstructed);
  EXPECT_EQ(a.stats.client_to_server_bytes, b.stats.client_to_server_bytes);
  EXPECT_EQ(a.stats.server_to_client_bytes, b.stats.server_to_client_bytes);
  EXPECT_EQ(a.stats.roundtrips, b.stats.roundtrips);
  EXPECT_EQ(a.files_total, b.files_total);
  EXPECT_EQ(a.files_unchanged, b.files_unchanged);
  EXPECT_EQ(a.files_new, b.files_new);
  EXPECT_EQ(a.map_server_to_client_bytes, b.map_server_to_client_bytes);
  EXPECT_EQ(a.map_client_to_server_bytes, b.map_client_to_server_bytes);
  EXPECT_EQ(a.delta_bytes, b.delta_bytes);
}

class CollectionConformance : public ::testing::TestWithParam<size_t> {
 protected:
  const ProtocolEntry& protocol() const {
    return ConformanceProtocols()[GetParam()];
  }
};

TEST_P(CollectionConformance, ReconstructsAndCountsFiles) {
  const MixedCollection m = MakeMixedCollection();
  SCOPED_TRACE("FSX_SEED=" + std::to_string(m.seed));
  auto r = SyncCollectionWith(m.client, m.server, protocol());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, m.server);
  EXPECT_EQ(r->files_total, m.server.size());
  EXPECT_EQ(r->files_unchanged, m.held_equal);
  EXPECT_EQ(r->files_new, m.absent);
  // Roundtrips are shared across files: the deepest file plus the
  // fingerprint exchange, never a sum over files.
  EXPECT_GE(r->stats.roundtrips, 2u);
  EXPECT_LT(r->stats.roundtrips, 30u);
}

TEST_P(CollectionConformance, ObserverPhaseSumsEqualStats) {
  const MixedCollection m = MakeMixedCollection();
  SCOPED_TRACE("FSX_SEED=" + std::to_string(m.seed));
  obs::SyncObserver observer;
  auto observed = SyncCollectionWith(m.client, m.server, protocol(),
                                     &observer);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_EQ(observer.dir_bytes(obs::Flow::kUp),
            observed->stats.client_to_server_bytes);
  EXPECT_EQ(observer.dir_bytes(obs::Flow::kDown),
            observed->stats.server_to_client_bytes);
  EXPECT_GT(observer.phase_bytes(obs::Phase::kHandshake, obs::Flow::kUp),
            0u);
  // Attaching the observer changes nothing else.
  auto plain = SyncCollectionWith(m.client, m.server, protocol());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExpectSameRun(*plain, *observed);
}

TEST_P(CollectionConformance, ThreadCountChangesNothing) {
  const MixedCollection m = MakeMixedCollection();
  SCOPED_TRACE("FSX_SEED=" + std::to_string(m.seed));
  const ProtocolEntry threaded =
      ThreadedConformanceProtocols(kThreads)[GetParam()];
  ASSERT_EQ(threaded.name, protocol().name);
  ASSERT_EQ(threaded.num_threads, kThreads);
  auto serial = SyncCollectionWith(m.client, m.server, protocol());
  auto parallel = SyncCollectionWith(m.client, m.server, threaded);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectSameRun(*serial, *parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CollectionConformance,
    ::testing::Range(size_t{0}, ConformanceProtocols().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = ConformanceProtocols()[info.param].name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace fsx
