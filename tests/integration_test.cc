// Cross-module end-to-end scenarios: release-pair and web-collection
// synchronization with the full protocol stack, plus cost-shape checks
// tying the implementation back to the paper's headline claims.
#include <gtest/gtest.h>

#include "fsync/core/collection.h"
#include "fsync/core/session.h"
#include "fsync/rsync/rsync.h"
#include "fsync/workload/release.h"
#include "fsync/workload/web.h"

namespace fsx {
namespace {

ReleasePair SmallRelease() {
  ReleaseProfile p = GccLikeProfile();
  p.num_files = 30;
  p.max_file_bytes = 32 * 1024;
  return MakeRelease(p);
}

TEST(Integration, ReleasePairSyncsExactly) {
  ReleasePair pair = SmallRelease();
  SyncConfig config;
  auto r = SyncCollectionWith(pair.old_release, pair.new_release,
                              SessionProtocol(config));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, pair.new_release);
}

TEST(Integration, ProtocolBeatsRsyncOnRelease) {
  ReleasePair pair = SmallRelease();
  SyncConfig config;
  RsyncParams rsync_params;  // default 700-byte blocks

  auto ours = SyncCollectionWith(pair.old_release, pair.new_release,
                                 SessionProtocol(config));
  auto theirs = SyncCollectionWith(pair.old_release, pair.new_release,
                                   RsyncProtocol(rsync_params));
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(theirs.ok());
  // The paper reports 1.5-3x savings over rsync; require at least 1.2x
  // on this small sample to avoid flakiness.
  EXPECT_LT(ours->stats.total_bytes() * 12,
            theirs->stats.total_bytes() * 10);
}

TEST(Integration, ProtocolWithinFactorOfDeltaLowerBound) {
  ReleasePair pair = SmallRelease();
  SyncConfig config;
  auto ours = SyncCollectionWith(pair.old_release, pair.new_release,
                                 SessionProtocol(config));
  auto bound =
      CollectionDeltaBytes(pair.old_release, pair.new_release,
                           DeltaCodec::kZd);
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(bound.ok());
  // Paper: within ~1.5-2x of the delta compressor. Allow 3x headroom.
  EXPECT_LT(ours->stats.total_bytes(), *bound * 3);
}

TEST(Integration, WebCollectionDailySync) {
  WebProfile p;
  p.num_pages = 40;
  p.max_page_bytes = 16 * 1024;
  WebCollectionModel model(p);
  SyncConfig config;
  auto r = SyncCollectionWith(model.Snapshot(0), model.Snapshot(1),
                              SessionProtocol(config));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, model.Snapshot(1));
  EXPECT_GT(r->files_unchanged, 0u);
}

TEST(Integration, LongerGapsCostMore) {
  WebProfile p;
  p.num_pages = 40;
  p.max_page_bytes = 16 * 1024;
  WebCollectionModel model(p);
  SyncConfig config;
  auto day1 = SyncCollectionWith(model.Snapshot(0), model.Snapshot(1),
                                 SessionProtocol(config));
  auto day7 = SyncCollectionWith(model.Snapshot(0), model.Snapshot(7),
                                 SessionProtocol(config));
  ASSERT_TRUE(day1.ok());
  ASSERT_TRUE(day7.ok());
  EXPECT_LT(day1->stats.total_bytes(), day7->stats.total_bytes());
}

TEST(Integration, MapQualityDrivesDeltaSize) {
  // Disabling the entire map phase (roundtrip cap 1) must cost more in
  // delta bytes than the full multi-round protocol.
  ReleasePair pair = SmallRelease();
  SyncConfig full;
  SyncConfig capped;
  capped.max_roundtrips = 1;
  auto with_map = SyncCollectionWith(pair.old_release, pair.new_release,
                                     SessionProtocol(full));
  auto no_map = SyncCollectionWith(pair.old_release, pair.new_release,
                                   SessionProtocol(capped));
  ASSERT_TRUE(with_map.ok());
  ASSERT_TRUE(no_map.ok());
  EXPECT_EQ(no_map->reconstructed, pair.new_release);
  EXPECT_LT(with_map->delta_bytes, no_map->delta_bytes);
}

TEST(Integration, VcdiffPhaseTwoAlsoWorks) {
  ReleasePair pair = SmallRelease();
  SyncConfig config;
  config.delta_codec = DeltaCodec::kVcdiff;
  auto r = SyncCollectionWith(pair.old_release, pair.new_release,
                              SessionProtocol(config));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->reconstructed, pair.new_release);
}

}  // namespace
}  // namespace fsx
