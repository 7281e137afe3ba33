// release-update: the paper's Table 6.1 setting. One gcc-like release
// update goes through SyncCollectionBatched with every paper technique
// on, in memory. Nearly all time is in the session layers (core
// endpoints, index scan, MD5, zd); reconcile, store and netd stay idle.
#include <algorithm>

#include "fsync/obs/sync_obs.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/release.h"
#include "fsync/workload/text_synth.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A gcc-like release update of 400 C-like files (~9 MB) with
// fsx::MakeRelease's make-up: half the files unchanged, 38% lightly
// edited in clusters, 10% heavily edited, the rest rewritten, plus a few
// added and removed. The old release (names, sizes, contents) and the
// plan of the update (which files change, and how many edits each gets)
// come from a fixed stream: the old release is the collection being
// maintained. The seed draws the update itself: where each edit lands,
// what it writes, and the rewritten and added files. With the whole
// release drawn per seed, sync time and wire bytes moved by ~10% between
// seeds.
fsx::ReleasePair MakeReleaseUpdate(uint64_t seed) {
  constexpr int kFiles = 400;
  constexpr uint64_t kMinBytes = 4 * 1024;
  constexpr uint64_t kMaxBytes = 192 * 1024;
  fsx::Rng shape(0x6CC);
  fsx::Rng rng(MixSeed(seed, 0x6CC));
  fsx::ReleasePair pair;
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = fsx::SynthFileName(shape, ".c", i);
    const uint64_t size = shape.SkewedSize(kMinBytes, kMaxBytes);
    const double bucket = shape.NextDouble();
    fsx::Bytes content = fsx::SynthSourceFile(shape, size);
    pair.old_release[name] = content;
    fsx::EditProfile ep;
    if (bucket < 0.50) {
      pair.new_release[name] = std::move(content);
      continue;
    } else if (bucket < 0.88) {
      ep.num_edits = static_cast<int>(shape.UniformInt(2, 12));
      ep.min_edit_size = 2;
      ep.max_edit_size = 200;
      ep.locality = 0.85;
    } else if (bucket < 0.98) {
      ep.num_edits = static_cast<int>(shape.UniformInt(20, 80));
      ep.min_edit_size = 8;
      ep.max_edit_size = 2048;
      ep.locality = 0.4;
    } else {
      pair.new_release[name] = fsx::SynthSourceFile(rng, size);
      continue;
    }
    pair.new_release[name] = fsx::ApplyEdits(content, ep, rng);
  }
  for (int i = 0; i < 5; ++i) {  // additions
    const std::string name = fsx::SynthFileName(shape, ".c", kFiles + i);
    pair.new_release[name] =
        fsx::SynthSourceFile(rng, shape.SkewedSize(kMinBytes, kMaxBytes));
  }
  int removed = 0;  // removals: the first three old names
  for (auto it = pair.new_release.begin();
       it != pair.new_release.end() && removed < 3;) {
    if (pair.old_release.contains(it->first)) {
      it = pair.new_release.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return pair;
}

}  // namespace

RunResult RunReleaseUpdate(const RunOptions& opt, Tracer& tracer) {
  RunResult out;
  std::vector<fsx::ReleasePair> updates;
  EndToEnd e2e;
  e2e.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    updates.clear();
    for (int k = 0; k < kUpdatesPerRun; ++k) {
      updates.push_back(MakeReleaseUpdate(opt.seed * kUpdatesPerRun + k));
    }
  });
  const fsx::SyncConfig config = AllTechniquesConfig();

  // Per update: the figures of its last checked sync.
  e2e.traffic.resize(kUpdatesPerRun);
  std::vector<bool> seen(kUpdatesPerRun, false);
  std::vector<fsx::obs::SyncObserver> observers(kUpdatesPerRun);
  std::vector<fsx::CollectionSyncResult> results(kUpdatesPerRun);
  std::vector<MatchCounts> matches(kUpdatesPerRun);
  RunRounds(opt.seconds, out, [&](int k) {
    const fsx::ReleasePair& pair = updates[k];
    fsx::SimulatedChannel channel;
    fsx::obs::SyncObserver observer;
    fsx::StatusOr<fsx::CollectionSyncResult> r =
        fsx::Status::Internal("unset");
    const uint64_t t0 = NowNs();
    {
      Tracer::Scope op(tracer, "bench.op");
      Tracer::Scope s(tracer, "core.SyncCollectionBatched");
      r = fsx::SyncCollectionBatched(pair.old_release, pair.new_release,
                                     config, channel, &observer);
    }
    const double secs = (NowNs() - t0) / 1e9;

    // Checks, apart from the sync: the reconstruction against the
    // generator's target, the phase attribution against the channel,
    // the traffic against shipping the changed files raw, and an
    // independent drive of every changed file's endpoint pair.
    if (!r.ok() || r->reconstructed != pair.new_release) {
      return false;
    }
    const fsx::TrafficStats& st = channel.stats();
    uint64_t up = 0, down = 0, changed_raw = 0;
    for (int p = 0; p < fsx::obs::kNumPhases; ++p) {
      up += observer.phase_bytes(static_cast<fsx::obs::Phase>(p),
                                 fsx::obs::Flow::kUp);
      down += observer.phase_bytes(static_cast<fsx::obs::Phase>(p),
                                   fsx::obs::Flow::kDown);
    }
    for (const auto& [name, data] : pair.new_release) {
      auto it = pair.old_release.find(name);
      if (it == pair.old_release.end() || it->second != data) {
        changed_raw += data.size();
      }
    }
    MatchCounts counts;
    bool ok = up == st.client_to_server_bytes &&
              down == st.server_to_client_bytes &&
              st.total_bytes() < changed_raw;
    for (const auto& [f_old, f_new] :
         ChangedPairs(pair.old_release, pair.new_release)) {
      ok = ok && DriveEndpointPair(*f_old, *f_new, config, tracer, counts);
    }
    ok = ok && counts.confirmed <= counts.candidates &&
         counts.candidates <= counts.hashes_sent + counts.hashes_derived;
    // Wire bytes and rounds repeat exactly for a fixed input.
    if (ok && seen[k]) {
      ok = st.total_bytes() == e2e.traffic[k].total_bytes() &&
           st.roundtrips == e2e.traffic[k].roundtrips;
    }
    if (!ok) {
      return false;
    }
    seen[k] = true;
    e2e.traffic[k] = st;
    e2e.ops.push_back({secs, secs, CollectionBytes(pair.new_release), k});
    observers[k] = observer;
    results[k] = std::move(*r);
    matches[k] = counts;
    return true;
  });
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
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
  std::vector<double> unchanged, sessioned, fresh, delta;
  for (const fsx::CollectionSyncResult& r : results) {
    unchanged.push_back(r.files_unchanged);
    sessioned.push_back(r.files_total - r.files_unchanged - r.files_new);
    fresh.push_back(r.files_new);
    delta.push_back(r.delta_bytes);
  }
  out.Add("core.files_unchanged", Mean(unchanged), "count");
  out.Add("core.files_sessioned", Mean(sessioned), "count");
  out.Add("core.files_new", Mean(fresh), "count");
  out.Add("delta.delta_bytes", Mean(delta), "bytes");
  AddKernelProbes(updates[0].old_release, updates[0].new_release, config,
                  /*small_limit=*/0, tracer, out);
  return out;
}

}  // namespace perfbench
