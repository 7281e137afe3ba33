// Durable-apply behavior without crashes: transaction happy paths,
// concurrent-modification conflicts, recovery no-ops, and the journaled
// in-place file apply (including promotion accounting).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/journal.h"
#include "fsync/util/random.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;

class ApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_apply_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteRaw(const std::string& rel, const std::string& content) {
    fs::path p = fs::path(root_) / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::binary) << content;
  }

  std::string root_;
};

Collection SampleFiles() {
  Collection c;
  c["a.txt"] = ToBytes("alpha");
  c["dir/b.txt"] = ToBytes("bravo bravo");
  c["dir/deep/c.bin"] = ToBytes("charlie");
  return c;
}

Bytes FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes{std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>()};
}

TEST_F(ApplyTest, ApplyTreeWritesVerifiableTree) {
  Collection files = SampleFiles();
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, files, Manifest{}, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_committed, files.size());
  EXPECT_EQ(report->files_unchanged, 0u);
  EXPECT_TRUE(report->conflicts.empty());
  EXPECT_FALSE(report->recovered);
  EXPECT_EQ(obs.event_count(obs::Event::kJournalCommit), 1u);
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 0u);

  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, files);
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_TRUE(dirty->empty());
  EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
}

TEST_F(ApplyTest, HostileManifestPathsAbortBeforeTouchingDisk) {
  // A manifest is wire data: a compromised or malicious server must not
  // be able to name its way out of the destination tree. The whole
  // apply aborts (not a per-file skip) and nothing lands outside root.
  const std::string outside_marker = root_ + "_outside_marker";
  fs::remove(outside_marker);
  for (const std::string evil :
       {"../escape", "/etc/fsx_apply_test", "dir/../../escape", "..",
        "a\\..\\b", "dir//double"}) {
    Collection files = SampleFiles();
    files[evil] = ToBytes("pwned");
    auto report = ApplyTree(root_, files, Manifest{});
    EXPECT_FALSE(report.ok()) << evil;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << evil;
  }
  EXPECT_FALSE(fs::exists(outside_marker));
  EXPECT_FALSE(fs::exists(fs::path(root_).parent_path() / "escape"));
}

TEST_F(ApplyTest, UnchangedFilesAreSkippedNotRewritten) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);
  auto report = ApplyTree(root_, files, expected);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_committed, 0u);
  EXPECT_EQ(report->files_unchanged, files.size());
}

TEST_F(ApplyTest, DeleteExtraRespectsMirrorSemantics) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);
  Collection fewer = files;
  fewer.erase("dir/b.txt");
  auto report = ApplyTree(root_, fewer, expected);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_deleted, 1u);
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, fewer);
}

TEST_F(ApplyTest, ConflictingOverwriteIsSkippedAndReported) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // Someone edits a.txt behind the syncer's back.
  WriteRaw("a.txt", "locally edited");

  Collection next = files;
  next["a.txt"] = ToBytes("update from source");
  next["dir/b.txt"] = ToBytes("bravo v2");
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, next, expected, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "a.txt");
  EXPECT_EQ(report->files_committed, 1u);  // dir/b.txt still applied
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 1u);

  // The local edit survives; the rest of the tree is updated; the
  // manifest reflects what is actually on disk, so verify is clean.
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)["a.txt"], ToBytes("locally edited"));
  EXPECT_EQ((*back)["dir/b.txt"], ToBytes("bravo v2"));
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  EXPECT_TRUE(dirty->empty());
}

TEST_F(ApplyTest, ConflictingDeleteIsSkipped) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  WriteRaw("dir/b.txt", "changed since scan");
  Collection fewer = files;
  fewer.erase("dir/b.txt");

  auto report = ApplyTree(root_, fewer, expected);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "dir/b.txt");
  EXPECT_EQ(report->files_deleted, 0u);
  EXPECT_TRUE(fs::exists(fs::path(root_) / "dir/b.txt"));
}

TEST_F(ApplyTest, FileAppearingMidApplyIsNotDeleted) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // A file the syncer never saw appears; mirror deletion must not eat
  // it (expected_old is null for it).
  WriteRaw("surprise.txt", "appeared mid-apply");

  auto report = ApplyTree(root_, files, expected);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "surprise.txt");
  EXPECT_TRUE(fs::exists(fs::path(root_) / "surprise.txt"));
}

TEST_F(ApplyTest, ConcurrentEditToUnchangedFileIsAConflict) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // The update leaves a.txt as it was (target == expected), but someone
  // edits it on disk between the scan and the apply. Only reading the
  // disk file sees that; the edit must survive and be reported.
  WriteRaw("a.txt", "edited between scan and apply");
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, files, expected, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->conflicts, std::vector<std::string>{"a.txt"});
  EXPECT_EQ(report->files_unchanged, files.size() - 1);
  EXPECT_EQ(report->files_committed, 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 1u);
  EXPECT_EQ(FileBytes(fs::path(root_) / "a.txt"),
            ToBytes("edited between scan and apply"));

  // The manifest records the disk entry, so verify stays clean.
  auto manifest = ParseManifest(FileBytes(fs::path(root_) / ".fsx-manifest"));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ((*manifest)["a.txt"],
            BuildManifest({{"a.txt", ToBytes("edited between scan and apply")}})
                .at("a.txt"));
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_TRUE(dirty->empty());
}

/// Every name and outcome the store gives for a tree, run through one
/// spelling of its root: the mirror StoreTree (deleting an extra),
/// LoadTree, a mirror ApplyTree (edit, add, delete) and RecoverTree's
/// sweep of a stranded temp.
std::vector<std::string> StoreOutcomes(const std::string& root) {
  std::vector<std::string> log;
  auto names = [&](const char* step) {
    auto tree = LoadTree(root);
    log.push_back(std::string(step) + " load " + tree.status().ToString());
    for (const auto& [name, data] : tree.ok() ? *tree : Collection{}) {
      log.push_back(name + " " + ToString(data));
    }
  };
  Collection files = SampleFiles();
  log.push_back(StoreTree(root, files, /*delete_extra=*/true,
                          /*write_manifest=*/true)
                    .ToString());
  names("store");

  Collection next = files;
  next["a.txt"] = ToBytes("alpha v2");
  next["dir/new.txt"] = ToBytes("added");
  next.erase("dir/deep/c.bin");
  auto report = ApplyTree(root, next, BuildManifest(files));
  log.push_back("apply " + report.status().ToString());
  for (const FileApplyOutcome& f : report.ok() ? report->files
                                               : ApplyReport{}.files) {
    log.push_back(f.path + " " + std::to_string(static_cast<int>(f.action)));
  }
  names("apply");

  std::ofstream(fs::path(root) / "dir/b.txt.fsx-tmp") << "debris";
  auto rec = RecoverTree(root);
  log.push_back("recover " + rec.status().ToString() + " " +
                std::to_string(rec.ok() ? rec->cleaned_temps : 99));
  log.push_back(fs::exists(fs::path(root) / "dir/b.txt.fsx-tmp") ? "temp left"
                                                                 : "swept");
  return log;
}

TEST_F(ApplyTest, RootSpellingDoesNotChangeNamesOrOutcomes) {
  // Tree names are computed lexically against the root as given, so
  // every spelling of the same directory must give the same names.
  auto fresh = [&] {
    fs::remove_all(root_);
    fs::create_directories(fs::path(root_) / "dir");
    WriteRaw("extra.txt", "not in the collection");
    WriteRaw("dir/extra.txt", "nor this");
  };
  fresh();
  const std::vector<std::string> want = StoreOutcomes(root_);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.front(), "OK");
  EXPECT_EQ(want.back(), "swept");

  const fs::path abs(root_);
  const std::string leaf = abs.filename().string();
  for (const std::string& spelled :
       {root_ + "/", (abs.parent_path() / "." / leaf).string(),
        (abs / ".." / leaf).string(),
        abs.lexically_relative(fs::current_path()).string()}) {
    fresh();
    EXPECT_EQ(StoreOutcomes(spelled), want) << spelled;
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(ApplyTest, MirrorApplyLeavesOutOfTreeSymlinkAlone) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  const fs::path outside = root_ + "_outside";
  fs::create_directories(outside);
  std::ofstream(outside / "x") << "outside the tree";
  fs::create_symlink(outside / "x", fs::path(root_) / "out-link");

  // The link is not in the collection, but the apply never deletes or
  // writes through a symlink; a second apply must work as well (no
  // journal left behind by a failed first one).
  Collection next = files;
  next["dir/b.txt"] = ToBytes("bravo v2");
  auto apply = [&](const Collection& from, const Collection& to) {
    auto report = ApplyTree(root_, to, BuildManifest(from));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->conflicts.empty());
    EXPECT_EQ(report->files_committed, 1u);
    EXPECT_EQ(report->files_deleted, 0u);
    EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
  };
  apply(files, next);
  apply(next, files);
  EXPECT_EQ(fs::read_symlink(fs::path(root_) / "out-link"), outside / "x");
  EXPECT_EQ(FileBytes(outside / "x"), ToBytes("outside the tree"));
  fs::remove_all(outside);
}

TEST_F(ApplyTest, MirrorApplySkipsInTreeSymlink) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  fs::create_symlink("a.txt", fs::path(root_) / "link.txt");

  // The link sits at link.txt, a name not in the collection; it is
  // neither the file it points to nor an extra to delete.
  Collection next = files;
  next["a.txt"] = ToBytes("alpha v2");
  auto report = ApplyTree(root_, next, BuildManifest(files));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->conflicts.empty());
  EXPECT_EQ(report->files_committed, 1u);
  EXPECT_EQ(report->files_deleted, 0u);
  EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
  ASSERT_TRUE(fs::is_symlink(fs::path(root_) / "link.txt"));
  EXPECT_EQ(fs::read_symlink(fs::path(root_) / "link.txt"), "a.txt");
  EXPECT_EQ(FileBytes(fs::path(root_) / "link.txt"), ToBytes("alpha v2"));
  auto manifest = ParseManifest(FileBytes(fs::path(root_) / ".fsx-manifest"));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, BuildManifest(next));
}
#endif  // __unix__ || __APPLE__

TEST_F(ApplyTest, RecoverTreeIsANoOpOnCleanTree) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->had_journal);
  EXPECT_EQ(rec->rolled_back_files, 0u);
  EXPECT_EQ(rec->cleaned_temps, 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 0u);
  auto rec2 = RecoverTree(root_ + "/no_such_dir");
  ASSERT_TRUE(rec2.ok());
  EXPECT_FALSE(rec2->had_journal);
}

TEST_F(ApplyTest, RecoverTreeSweepsStrandedTemps) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  WriteRaw("dir/b.txt.fsx-tmp", "torn staging debris");
  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->cleaned_temps, 1u);
  EXPECT_FALSE(fs::exists(fs::path(root_) / "dir/b.txt.fsx-tmp"));
  EXPECT_EQ(obs.event_count(obs::Event::kRolledBackFile), 1u);
  // The debris never reached the content namespace.
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)["dir/b.txt"], ToBytes("bravo bravo"));
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(ApplyTest, RecoverTreeToleratesSymlinksInTree) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  // A legitimate symlink the strict LoadTree refuses, plus a leftover
  // uncommitted journal. Recovery must still converge (lenient manifest
  // rebuild) — otherwise the journal is never removed and every future
  // apply on this tree fails permanently.
  fs::create_symlink("a.txt", fs::path(root_) / "link.txt");
  {
    auto w = JournalWriter::Create(fs::path(root_) / kJournalName);
    ASSERT_TRUE(w.ok());
    JournalRecord begin;
    begin.type = JournalRecordType::kBegin;
    begin.mode = ApplyMode::kTree;
    ASSERT_TRUE(w->Append(begin).ok());
  }

  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->had_journal);
  EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
  EXPECT_TRUE(fs::is_symlink(fs::path(root_) / "link.txt"));

  // A fresh apply (whose Begin recovers first) works again.
  auto report = ApplyTree(root_, files, BuildManifest(files));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}
#endif  // __unix__ || __APPLE__

TEST_F(ApplyTest, RecoveryLeavesForeignJournalSuffixedFilesAlone) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  // A pre-existing user file that merely ends in the journal suffix:
  // its content is not a journal (wrong magic), so recovery must not
  // treat it as a crashed journal and delete it.
  WriteRaw("notes.fsx-journal", "my notes, definitely not a journal");

  auto file_rec =
      RecoverInPlaceFile((fs::path(root_) / "notes").string());
  ASSERT_TRUE(file_rec.ok()) << file_rec.status().ToString();
  EXPECT_TRUE(file_rec->foreign);
  EXPECT_FALSE(file_rec->had_journal);

  auto rec = RecoverTree(root_);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->foreign_journals, 1u);
  EXPECT_EQ(FileBytes(fs::path(root_) / "notes.fsx-journal"),
            ToBytes("my notes, definitely not a journal"));
}

TEST_F(ApplyTest, RecoveryClearsJournalThatDiedAtCreation) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  // A journal torn mid-header (a magic prefix) really is ours: no
  // intent ever landed, so recovery just removes it.
  WriteRaw("a.txt.fsx-journal", "FSX");

  auto rec = RecoverTree(root_);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->inplace_recovered, 1u);
  EXPECT_EQ(rec->foreign_journals, 0u);
  EXPECT_FALSE(fs::exists(fs::path(root_) / "a.txt.fsx-journal"));
  EXPECT_EQ(FileBytes(fs::path(root_) / "a.txt"), ToBytes("alpha"));
}

TEST_F(ApplyTest, ApplyRejectsUnsafeAndReservedPaths) {
  ApplyTransaction txn(root_, {});
  ASSERT_TRUE(txn.Begin().ok());
  EXPECT_FALSE(txn.WriteFile("../escape", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile("/abs", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile(".fsx-manifest", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile("a.fsx-tmp", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile(".fsx-journal", ToBytes("x"), nullptr).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(ApplyTest, TransactionLifecycleIsEnforced) {
  ApplyTransaction txn(root_, {});
  EXPECT_EQ(txn.WriteFile("a", ToBytes("x"), nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(txn.Commit().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(txn.Begin().ok());
  EXPECT_EQ(txn.Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// In-place file apply
// ---------------------------------------------------------------------------

ReconstructCommand Copy(uint64_t src, uint64_t len, uint64_t dst) {
  ReconstructCommand c;
  c.kind = ReconstructCommand::kCopy;
  c.source_offset = src;
  c.length = len;
  c.target_offset = dst;
  return c;
}

ReconstructCommand Lit(const std::string& s, uint64_t dst) {
  ReconstructCommand c;
  c.kind = ReconstructCommand::kLiteral;
  c.literal = ToBytes(s);
  c.target_offset = dst;
  return c;
}

TEST_F(ApplyTest, InPlaceApplyRewritesFileOnDisk) {
  WriteRaw("f.bin", "AAAABBBB");
  fs::path p = fs::path(root_) / "f.bin";
  // New file: "BBBBAAAAxyz" — the two halves swap (a dependency cycle,
  // so one side gets promoted) plus a fresh literal tail.
  std::vector<ReconstructCommand> cmds = {
      Copy(4, 4, 0), Copy(0, 4, 4), Lit("xyz", 8)};
  obs::SyncObserver obs;
  auto r = InPlaceApplyFile(p.string(), cmds, 11, nullptr, &obs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FileBytes(p), ToBytes("BBBBAAAAxyz"));
  EXPECT_GT(r->steps_executed, 0u);
  EXPECT_EQ(r->promoted_commands, 1u);  // cycle of two 4-byte copies
  EXPECT_EQ(r->promoted_literal_bytes, 4u);
  EXPECT_FALSE(fs::exists(p.string() + ".fsx-journal"));
  EXPECT_EQ(obs.event_count(obs::Event::kJournalCommit), 1u);
}

TEST_F(ApplyTest, InPlaceApplyShrinksAndGrows) {
  WriteRaw("f.bin", "0123456789");
  fs::path p = fs::path(root_) / "f.bin";
  // Shrink: keep the middle four bytes.
  auto r = InPlaceApplyFile(p.string(), {Copy(3, 4, 0)}, 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FileBytes(p), ToBytes("3456"));
  // Grow: double it with a literal suffix.
  auto r2 =
      InPlaceApplyFile(p.string(), {Copy(0, 4, 0), Lit("grow", 4)}, 8);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(FileBytes(p), ToBytes("3456grow"));
}

TEST_F(ApplyTest, InPlaceApplyChecksExpectedFingerprint) {
  WriteRaw("f.bin", "AAAABBBB");
  fs::path p = fs::path(root_) / "f.bin";
  Fingerprint wrong = FileFingerprint(ToBytes("something else"));
  obs::SyncObserver obs;
  auto r = InPlaceApplyFile(p.string(), {Copy(0, 8, 0)}, 8, &wrong, &obs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(FileBytes(p), ToBytes("AAAABBBB"));  // untouched
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 1u);

  Fingerprint right = FileFingerprint(ToBytes("AAAABBBB"));
  auto r2 = InPlaceApplyFile(p.string(), {Copy(4, 4, 0)}, 4, &right, &obs);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(FileBytes(p), ToBytes("BBBB"));
}

TEST_F(ApplyTest, InPlaceApplyRequiresExistingFile) {
  fs::path p = fs::path(root_) / "missing.bin";
  fs::create_directories(root_);
  auto r = InPlaceApplyFile(p.string(), {Lit("new", 0)}, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ApplyTest, RecoverInPlaceFileIsANoOpWithoutJournal) {
  WriteRaw("f.bin", "stable");
  fs::path p = fs::path(root_) / "f.bin";
  auto r = RecoverInPlaceFile(p.string());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->had_journal);
  EXPECT_EQ(FileBytes(p), ToBytes("stable"));
}

TEST_F(ApplyTest, RecoverInPlaceRollsBackUncommittedJournal) {
  WriteRaw("f.bin", "AAAABBBB");
  fs::path p = fs::path(root_) / "f.bin";
  fs::path jp = fs::path(p.string() + ".fsx-journal");

  // Hand-craft a crashed half-apply: BEGIN + one undo image, then the
  // block move itself executed, but no COMMIT.
  {
    auto w = JournalWriter::Create(jp);
    ASSERT_TRUE(w.ok());
    JournalRecord begin;
    begin.type = JournalRecordType::kBegin;
    begin.mode = ApplyMode::kInPlace;
    begin.old_size = 8;
    ASSERT_TRUE(w->Append(begin).ok());
    JournalRecord move;
    move.type = JournalRecordType::kBlockMove;
    move.target_offset = 0;
    move.undo = ToBytes("AAAA");
    ASSERT_TRUE(w->Append(move).ok());
  }
  WriteRaw("f.bin", "BBBBBBBB");  // the executed (uncommitted) move

  obs::SyncObserver obs;
  auto r = RecoverInPlaceFile(p.string(), &obs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->had_journal);
  EXPECT_TRUE(r->rolled_back);
  EXPECT_FALSE(r->completed);
  EXPECT_EQ(FileBytes(p), ToBytes("AAAABBBB"));  // bit-exact old
  EXPECT_FALSE(fs::exists(jp));
  EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 1u);
  EXPECT_EQ(obs.event_count(obs::Event::kRolledBackFile), 1u);
}

TEST_F(ApplyTest, RecoverInPlaceRemovesCommittedJournal) {
  WriteRaw("f.bin", "new content");
  fs::path p = fs::path(root_) / "f.bin";
  fs::path jp = fs::path(p.string() + ".fsx-journal");
  {
    auto w = JournalWriter::Create(jp);
    ASSERT_TRUE(w.ok());
    JournalRecord begin;
    begin.type = JournalRecordType::kBegin;
    begin.mode = ApplyMode::kInPlace;
    begin.old_size = 3;
    ASSERT_TRUE(w->Append(begin).ok());
    JournalRecord commit;
    commit.type = JournalRecordType::kCommit;
    ASSERT_TRUE(w->Append(commit).ok());
  }
  auto r = RecoverInPlaceFile(p.string());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->had_journal);
  EXPECT_TRUE(r->completed);
  EXPECT_FALSE(r->rolled_back);
  EXPECT_EQ(FileBytes(p), ToBytes("new content"));  // kept, not rolled back
  EXPECT_FALSE(fs::exists(jp));
}

}  // namespace
}  // namespace fsx::store
