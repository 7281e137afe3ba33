// tree-mirror: a web-textured tree of 20k small files at under 1% churn
// (edits, renames, one directory move), kept as an on-disk replica. One
// operation is LoadTree, SyncCollectionTree, and a journaled
// store::ApplyTree of the result. Time goes to reconcile (manifest
// hashing, trie walk, adoption), compress (the small-file bundle) and
// store (load, stage, fsync, rename); per-file sessions are ~0.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>

#include "counting_vfs.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/store/apply.h"
#include "fsync/store/fsstore.h"
#include "fsync/util/random.h"
#include "fsync/workload/text_synth.h"
#include "fsync/workload/tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kTreeFiles = 20000;

// The maintained collection: fsx::MakeTreeWorkload's 20k-file web tree
// (its successor is not used), plus four nested 40-file directories that
// a directory move can re-root. Every directory of the generator's tree
// holds ~800 files at this size, above its own 0.5% cap on a moved
// subtree, so the generator's directory move finds nothing to move.
// The base does not depend on the seed: it is the replica every update
// starts from, and it stays on disk between runs of one checkout.
fsx::Collection MakeBaseTree() {
  fsx::TreeChurnProfile profile = fsx::WebTreeProfile(kTreeFiles - 160);
  fsx::Collection base = fsx::MakeTreeWorkload(profile).old_tree;
  fsx::Rng rng(profile.seed);
  for (int d = 0; d < 4; ++d) {
    for (int i = 0; i < 40; ++i) {
      const std::string name = "site/section" + std::to_string(d) +
                               "/pages/page" + std::to_string(i) + ".html";
      base[name] = fsx::SynthWebPage(
          rng, rng.SkewedSize(profile.min_file_bytes, profile.max_file_bytes));
    }
  }
  return base;
}

// One update of the base tree, drawn from `seed` with fixed counts:
// 60 files renamed, 40 lightly edited, 20 deleted, 21 added, and one of
// the four nested directories (40 files) moved: 181 paths, 0.9% churn.
fsx::Collection MakeTreeUpdate(const fsx::Collection& base, uint64_t seed) {
  fsx::Collection next = ChurnTree(
      base, seed,
      {.renamed = 60, .edited = 40, .deleted = 20, .added = 21, .web = true,
       .keep_prefix = "site/"});
  const std::string dir =
      "site/section" + std::to_string(MixSeed(seed, 0xD1) % 4) + "/";
  for (auto it = next.lower_bound(dir);
       it != next.end() && it->first.starts_with(dir);) {
    next["moved/" + it->first] = std::move(it->second);
    it = next.erase(it);
  }
  return next;
}

bool WriteWhole(const fs::path& path, const fsx::Bytes& data) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return ::close(fd) == 0;
}

bool ReadWhole(const fs::path& path, fsx::Bytes& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n <= 0) {
      break;
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return done == out.size();
}

// Writes the benchmark's own dirty pages back and commits the metadata
// with one directory fsync, so that no timed apply fsync pays for them.
// Writeback is started on every file before waiting on any.
bool Settle(const fs::path& root, const std::vector<fs::path>& written) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const fs::path& p : written) {
      const int fd = ::open(p.c_str(), O_RDONLY);
      if (fd < 0) {
        return false;
      }
      ::sync_file_range(fd, 0, 0,
                        pass == 0 ? SYNC_FILE_RANGE_WRITE
                                  : SYNC_FILE_RANGE_WAIT_BEFORE |
                                        SYNC_FILE_RANGE_WRITE |
                                        SYNC_FILE_RANGE_WAIT_AFTER);
      ::close(fd);
    }
  }
  const int dfd = ::open(root.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return false;
  }
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

// Removes every directory under `dir` left empty (post-order).
void RemoveEmptyDirs(const fs::path& dir) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_directory(ec)) {
      RemoveEmptyDirs(e.path());
      ::rmdir(e.path().c_str());  // fails (and is left) when not empty
    }
  }
}

// Makes the replica under `root` hold exactly `tree`: files whose bytes
// already match are left alone, others are rewritten, extra files are
// removed. A replica left by an earlier run of the same checkout is
// therefore only verified, not written again.
bool SyncReplicaTo(const fs::path& root, const fsx::Collection& tree) {
  std::error_code ec;
  std::vector<fs::path> written;
  fsx::Bytes buf;
  for (const auto& [name, data] : tree) {
    const fs::path p = root / name;
    if (ReadWhole(p, buf) && buf == data) {
      continue;
    }
    written.push_back(p);
    if (!WriteWhole(p, data)) {
      return false;
    }
  }
  std::vector<fs::path> extra;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      return false;
    }
    if (it->is_regular_file(ec) &&
        !tree.contains(fs::relative(it->path(), root, ec).generic_string())) {
      extra.push_back(it->path());
    }
  }
  for (const fs::path& p : extra) {
    fs::remove(p, ec);
  }
  RemoveEmptyDirs(root);
  return Settle(root, written);
}

// Puts the replica back to the old tree after an operation: only the
// paths the update touched are rewritten or removed.
bool ResetReplica(const fs::path& root, const fsx::Collection& old_tree,
                  const fsx::Collection& new_tree) {
  std::error_code ec;
  for (const auto& [name, data] : new_tree) {
    if (!old_tree.contains(name)) {
      fs::remove(root / name, ec);
    }
  }
  std::vector<fs::path> written;
  for (const auto& [name, data] : old_tree) {
    auto it = new_tree.find(name);
    if (it == new_tree.end() || it->second != data) {
      written.push_back(root / name);
      if (!WriteWhole(written.back(), data)) {
        return false;
      }
    }
  }
  fs::remove(root / ".fsx-manifest", ec);
  RemoveEmptyDirs(root);
  return Settle(root, written);
}

// Reads the replica back with plain POSIX reads (not the store layer)
// and compares it with `want`. Any apply debris (staged temp, journal)
// fails the check; the manifest the apply writes is expected.
bool ReplicaMatches(const fs::path& root, const fsx::Collection& want) {
  std::error_code ec;
  size_t seen = 0;
  fsx::Bytes buf;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      return false;
    }
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const std::string rel = fs::relative(it->path(), root, ec).generic_string();
    if (rel == ".fsx-manifest") {
      continue;
    }
    if (rel.find(".fsx-") != std::string::npos) {
      return false;  // temp or journal left behind
    }
    auto w = want.find(rel);
    if (w == want.end() || !ReadWhole(it->path(), buf) || buf != w->second) {
      return false;
    }
    ++seen;
  }
  return seen == want.size();
}

}  // namespace

RunResult RunTreeMirror(const RunOptions& opt, Tracer& tracer) {
  RunResult out;
  const fs::path root = fs::path(opt.work_dir) / "tree-replica";
  fsx::Collection base;
  std::vector<fsx::Collection> updates;
  EndToEnd e2e;
  bool seeded = true;
  e2e.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    base = MakeBaseTree();
    updates.clear();
    for (int k = 0; k < kUpdatesPerRun; ++k) {
      updates.push_back(MakeTreeUpdate(base, opt.seed * kUpdatesPerRun + k));
    }
    seeded = seeded && SyncReplicaTo(root, base);
  });
  if (!seeded) {
    out.attempted = 1;
    out.failed = 1;
    out.correct = false;
    return out;
  }

  fsx::TreeSyncParams params;
  params.config.num_threads = BenchThreads();
  const fsx::store::ApplyOptions apply_options;  // journaled, mirror

  CountingVfs counting(fsx::store::RealVfsInstance());
  std::optional<fsx::store::ScopedVfs> scoped;
  if (opt.trace) {
    scoped.emplace(&counting);
  }

  e2e.traffic.resize(kUpdatesPerRun);
  std::vector<bool> seen(kUpdatesPerRun, false);
  std::vector<fsx::obs::SyncObserver> observers(kUpdatesPerRun);
  std::vector<std::optional<fsx::TreeSyncResult>> results(kUpdatesPerRun);
  std::vector<fsx::store::ApplyReport> reports(kUpdatesPerRun);
  std::vector<MatchCounts> matches(kUpdatesPerRun);
  bool reset_ok = true;
  RunRounds(opt.seconds, out, [&](int k) {
    const fsx::Collection& target = updates[k];
    fsx::SimulatedChannel channel;
    fsx::obs::SyncObserver observer;
    fsx::StatusOr<fsx::Collection> client = fsx::Status::Internal("unset");
    fsx::StatusOr<fsx::TreeSyncResult> r = fsx::Status::Internal("unset");
    fsx::StatusOr<fsx::store::ApplyReport> report =
        fsx::Status::Internal("unset");
    uint64_t t_sync0 = 0, t_sync1 = 0;
    const uint64_t t0 = NowNs();
    {
      Tracer::Scope op(tracer, "bench.op");
      {
        Tracer::Scope s(tracer, "store.LoadTree");
        client = fsx::LoadTree(root.string());
      }
      if (client.ok()) {
        t_sync0 = NowNs();
        {
          Tracer::Scope s(tracer, "core.SyncCollectionTree");
          r = fsx::SyncCollectionTree(*client, target, params, channel,
                                      &observer);
        }
        t_sync1 = NowNs();
      }
      if (r.ok()) {
        fsx::Manifest expected;
        {
          Tracer::Scope s(tracer, "store.BuildManifest");
          expected = fsx::BuildManifest(*client);
        }
        Tracer::Scope s(tracer, "store.ApplyTree");
        report = fsx::store::ApplyTree(root.string(), r->reconstructed,
                                       expected, apply_options);
      }
    }
    const double secs = (NowNs() - t0) / 1e9;

    // Checks, apart from the sync: the per-file classification, the
    // reconstruction, the replica on disk read back with plain POSIX
    // reads, and the endpoint pairs of the stale files SyncCollectionTree
    // runs sessions for (same path, above the small-file threshold)
    // driven directly.
    bool ok = client.ok() && r.ok() && report.ok() &&
              report->conflicts.empty() && r->reconstructed == target &&
              r->files_unchanged + r->files_adopted + r->files_small +
                      r->files_sessioned ==
                  r->files_total &&
              r->files_total == target.size() &&
              ReplicaMatches(root, target);
    MatchCounts counts;
    for (const auto& [f_old, f_new] : ChangedPairs(base, target)) {
      if (f_new->size() > params.small_file_threshold) {
        ok = ok && DriveEndpointPair(*f_old, *f_new, params.config, tracer,
                                     counts);
      }
    }
    // Wire bytes and rounds repeat exactly for a fixed input.
    if (ok && seen[k]) {
      ok = channel.stats().total_bytes() == e2e.traffic[k].total_bytes() &&
           r->stats.roundtrips == e2e.traffic[k].roundtrips;
    }
    reset_ok = reset_ok && ResetReplica(root, base, target);
    if (!ok) {
      return false;
    }
    seen[k] = true;
    e2e.traffic[k] = channel.stats();
    e2e.traffic[k].roundtrips = r->stats.roundtrips;
    e2e.ops.push_back({(t_sync1 - t_sync0) / 1e9, secs,
                       CollectionBytes(target), k});
    observers[k] = observer;
    results[k] = std::move(*r);
    reports[k] = *report;
    matches[k] = counts;
    return true;
  });
  scoped.reset();
  if (!reset_ok ||
      std::find(seen.begin(), seen.end(), false) != seen.end()) {
    out.correct = false;
    return out;
  }
  if (!opt.trace) {
    AddEndToEnd(e2e, out);
    return out;
  }
  AddTraceShare(tracer, e2e, out);
  const double n = static_cast<double>(out.attempted);
  out.Add("core.client_ms", tracer.SelfNs("core.client") / 1e6 / n, "ms");
  out.Add("core.server_ms", tracer.SelfNs("core.server") / 1e6 / n, "ms");
  AddMatchCounts(matches, out);
  AddPhaseBytes(observers, out);
  std::vector<double> unchanged, sessioned, fresh, delta, adopted, small,
      manifest_bytes, manifest_rounds, committed, deleted;
  for (int k = 0; k < kUpdatesPerRun; ++k) {
    const fsx::TreeSyncResult& r = *results[k];
    unchanged.push_back(r.files_unchanged);
    sessioned.push_back(r.files_sessioned);
    fresh.push_back(r.files_new);
    delta.push_back(r.delta_bytes);
    adopted.push_back(r.files_adopted);
    small.push_back(r.files_small);
    manifest_bytes.push_back(r.manifest_bytes);
    manifest_rounds.push_back(r.manifest_rounds);
    committed.push_back(reports[k].files_committed);
    deleted.push_back(reports[k].files_deleted);
  }
  out.Add("core.files_unchanged", Mean(unchanged), "count");
  out.Add("core.files_sessioned", Mean(sessioned), "count");
  out.Add("core.files_new", Mean(fresh), "count");
  out.Add("delta.delta_bytes", Mean(delta), "bytes");
  AddKernelProbes(base, updates[0], params.config,
                  params.small_file_threshold, tracer, out);

  // reconcile: SyncCollectionTree's manifest and diff steps, called alone.
  std::vector<double> manifest_s, diff_s;
  for (int i = 0; i < 3; ++i) {
    uint64_t t0 = NowNs();
    fsx::TreeManifest cm, sm;
    {
      Tracer::Scope s(tracer, "reconcile.BuildTreeManifest");
      cm = fsx::BuildTreeManifest(base);
      sm = fsx::BuildTreeManifest(updates[0]);
    }
    manifest_s.push_back((NowNs() - t0) / 1e9);
    t0 = NowNs();
    {
      Tracer::Scope s(tracer, "reconcile.ManifestReconcile");
      fsx::SimulatedChannel channel;
      auto diff = fsx::ManifestReconcile(cm, sm, params.merkle, channel);
      if (!diff.ok()) {
        out.correct = false;
        break;
      }
      fsx::DetectAdoptions(cm, *diff);
    }
    diff_s.push_back((NowNs() - t0) / 1e9);
  }
  out.Add("reconcile.manifest_ms", Median(manifest_s) * 1e3, "ms");
  out.Add("reconcile.diff_ms", Median(diff_s) * 1e3, "ms");
  out.Add("reconcile.manifest_bytes", Mean(manifest_bytes), "bytes");
  out.Add("reconcile.manifest_rounds", Mean(manifest_rounds), "count");
  out.Add("core.tree.files_adopted", Mean(adopted), "count");
  out.Add("core.tree.files_small", Mean(small), "count");
  out.Add("core.tree.files_sessioned", Mean(sessioned), "count");

  const VfsCounts& c = counting.counts();
  out.Add("store.load_ms", tracer.TotalNs("store.LoadTree") / 1e6 / n, "ms");
  out.Add("store.apply_ms", tracer.TotalNs("store.ApplyTree") / 1e6 / n,
          "ms");
  out.Add("store.vfs_opens", c.opens / n, "count");
  out.Add("store.vfs_bytes_written", c.bytes_written / n, "bytes");
  out.Add("store.fsyncs", c.fsyncs / n, "count");
  out.Add("store.renames", c.renames / n, "count");
  out.Add("store.unlinks", c.unlinks / n, "count");
  out.Add("store.files_committed", Mean(committed), "count");
  out.Add("store.files_deleted", Mean(deleted), "count");
  return out;
}

}  // namespace perfbench
