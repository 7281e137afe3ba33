#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "fsync/compress/codec.h"
#include "fsync/delta/zd.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  size_t rank = static_cast<size_t>(p / 100.0 * v.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double TailLatency(const std::vector<double>& v) {
  return v.size() < 40 ? Median(v) : Percentile(v, 98);
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0 && teardown) {
      teardown();
    }
    const uint64_t t0 = NowNs();
    setup();
    times.push_back((NowNs() - t0) / 1e9);
  }
  return Median(times);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t CollectionBytes(const fsx::Collection& c) {
  uint64_t total = 0;
  for (const auto& [name, data] : c) {
    total += data.size();
  }
  return total;
}

fsx::LinkModel SlowLink() {
  fsx::LinkModel link;
  link.downstream_bytes_per_sec = 64 * 1024;
  link.upstream_bytes_per_sec = 16 * 1024;
  link.roundtrip_latency_sec = 0.2;
  return link;
}

int BenchThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

fsx::SyncConfig AllTechniquesConfig() {
  fsx::SyncConfig config;
  config.start_block_size = 2048;
  config.min_block_size = 64;
  config.min_continuation_block = 16;
  config.use_continuation = true;
  config.use_decomposable = true;
  config.verify.group_size = 8;
  config.verify.continuation_group_size = 2;
  config.verify.max_batches = 2;
  config.verify.adaptive_groups = true;
  config.num_threads = BenchThreads();
  return config;
}

bool DriveEndpointPair(const fsx::Bytes& f_old, const fsx::Bytes& f_new,
                       const fsx::SyncConfig& config, Tracer& tracer,
                       MatchCounts& counts) {
  fsx::SyncClientEndpoint client(f_old, config);
  fsx::SyncServerEndpoint server(f_new, config);
  Tracer::Scope pair(tracer, "core.endpoint_pair");
  fsx::Bytes request;
  {
    Tracer::Scope s(tracer, "core.client");
    request = client.MakeRequest();
  }
  fsx::StatusOr<fsx::Bytes> server_msg = fsx::Status::Internal("unset");
  {
    Tracer::Scope s(tracer, "core.server");
    server_msg = server.OnRequest(request);
  }
  for (;;) {
    if (!server_msg.ok()) {
      return false;
    }
    fsx::StatusOr<std::optional<fsx::Bytes>> reply =
        fsx::Status::Internal("unset");
    {
      Tracer::Scope s(tracer, "core.client");
      reply = client.OnServerMessage(*server_msg);
    }
    if (!reply.ok()) {
      return false;
    }
    if (!reply->has_value()) {
      break;
    }
    Tracer::Scope s(tracer, "core.server");
    server_msg = server.OnClientMessage(**reply);
  }
  if (client.needs_fallback()) {
    // The degradation ladder's last rung: a compressed full transfer.
    fsx::Bytes full;
    {
      Tracer::Scope s(tracer, "core.server");
      full = server.OnFallbackRequest();
    }
    Tracer::Scope s(tracer, "core.client");
    if (!client.OnFallbackTransfer(full).ok()) {
      return false;
    }
  }
  for (const fsx::RoundTrace& t : client.trace()) {
    counts.hashes_sent += t.global_hashes + t.continuation_hashes;
    counts.hashes_derived += t.derived_hashes;
    counts.candidates += t.candidates;
    counts.confirmed += t.confirmed;
  }
  return client.done() && client.result() == f_new;
}

std::vector<std::pair<const fsx::Bytes*, const fsx::Bytes*>> ChangedPairs(
    const fsx::Collection& old_c, const fsx::Collection& new_c) {
  std::vector<std::pair<const fsx::Bytes*, const fsx::Bytes*>> out;
  for (const auto& [name, data] : new_c) {
    auto it = old_c.find(name);
    if (it != old_c.end() && it->second != data) {
      out.emplace_back(&it->second, &data);
    }
  }
  return out;
}

fsx::Collection ChurnTree(const fsx::Collection& base, uint64_t seed,
                          const TreeChurn& churn) {
  fsx::Rng rng(MixSeed(seed, 0x3EB7EE));
  std::vector<std::string> names;
  for (const auto& [name, data] : base) {
    if (churn.keep_prefix.empty() || !name.starts_with(churn.keep_prefix)) {
      names.push_back(name);
    }
  }
  const size_t picked =
      static_cast<size_t>(churn.renamed + churn.edited + churn.deleted);
  for (size_t i = 0; i < picked; ++i) {  // partial shuffle
    std::swap(names[i], names[i + rng.Uniform(names.size() - i)]);
  }
  fsx::Collection out = base;
  const char* ext = churn.web ? ".html" : ".c";
  int fresh = static_cast<int>(base.size());
  auto fresh_name = [&] {
    std::string name;
    do {
      name = fsx::SynthFileName(rng, ext, fresh++);
    } while (out.contains(name) || base.contains(name));
    return name;
  };
  size_t i = 0;
  for (int n = 0; n < churn.renamed; ++n, ++i) {
    fsx::Bytes content = std::move(out[names[i]]);
    out.erase(names[i]);
    out[fresh_name()] = std::move(content);
  }
  for (int n = 0; n < churn.edited; ++n, ++i) {
    fsx::EditProfile ep;
    ep.num_edits = static_cast<int>(rng.UniformInt(1, 6));
    ep.min_edit_size = 2;
    ep.max_edit_size = 128;
    ep.locality = 0.85;
    out[names[i]] = fsx::ApplyEdits(base.at(names[i]), ep, rng);
  }
  for (int n = 0; n < churn.deleted; ++n, ++i) {
    out.erase(names[i]);
  }
  for (int n = 0; n < churn.added; ++n) {
    const std::string name = fresh_name();
    const uint64_t size = rng.SkewedSize(64, 4096);
    out[name] = churn.web ? fsx::SynthWebPage(rng, size)
                          : fsx::SynthSourceFile(rng, size);
  }
  return out;
}

namespace {

// Probe results land here so the compiler cannot drop the probed calls.
std::atomic<uint64_t> g_probe_sink{0};

// Runs `pass` three times under a span and returns MB/s of the median.
double ProbeMbPerS(Tracer& tracer, const char* span, uint64_t bytes,
                   const std::function<void()>& pass) {
  std::vector<double> secs;
  for (int i = 0; i < 3; ++i) {
    const uint64_t t0 = NowNs();
    {
      Tracer::Scope s(tracer, span);
      pass();
    }
    secs.push_back((NowNs() - t0) / 1e9);
  }
  const double s = Median(secs);
  return s > 0 ? bytes / 1e6 / s : 0;
}

}  // namespace

void AddKernelProbes(const fsx::Collection& old_c,
                     const fsx::Collection& new_c,
                     const fsx::SyncConfig& config, uint64_t small_limit,
                     Tracer& tracer, RunResult& out) {
  const auto pairs = ChangedPairs(old_c, new_c);
  constexpr int kWeakBits = 20;

  // index: one earliest-match scan of every changed file's old version
  // per block size the session visits, for the new version's blocks.
  std::vector<uint64_t> sizes;
  for (uint64_t b = config.start_block_size; b >= config.min_block_size;
       b /= 2) {
    sizes.push_back(b);
  }
  struct ScanJob {
    const fsx::Bytes* haystack;
    uint64_t size;
    std::vector<uint32_t> keys;
  };
  std::vector<ScanJob> jobs;
  uint64_t scan_bytes = 0;
  for (const auto& [f_old, f_new] : pairs) {
    for (uint64_t b : sizes) {
      if (f_new->size() < b || f_old->size() < b) {
        continue;
      }
      ScanJob job{f_old, b, {}};
      for (uint64_t off = 0; off + b <= f_new->size(); off += b) {
        job.keys.push_back(fsx::TabledAdler::Truncate(
            fsx::TabledAdler::Hash(fsx::ByteSpan(*f_new).subspan(off, b)),
            kWeakBits));
      }
      scan_bytes += f_old->size();
      jobs.push_back(std::move(job));
    }
  }
  std::vector<uint64_t> pos;
  uint64_t sink = 0;
  out.Add("index.scan_mb_per_s",
          ProbeMbPerS(tracer, "index.ScanForKeys", scan_bytes, [&] {
            for (const ScanJob& j : jobs) {
              fsx::ScanForKeys(
                  *j.haystack, j.size, kWeakBits, j.keys,
                  [](size_t, uint64_t) { return true; }, pos);
              sink += pos.empty() ? 0 : pos.front();
            }
          }),
          "MB/s");

  // hash: batched MD5 over every new file cut into 1 KiB blocks.
  std::vector<fsx::ByteSpan> blocks;
  uint64_t md5_bytes = 0;
  for (const auto& [name, data] : new_c) {
    for (uint64_t off = 0; off < data.size(); off += 1024) {
      const uint64_t len = std::min<uint64_t>(1024, data.size() - off);
      blocks.push_back(fsx::ByteSpan(data).subspan(off, len));
      md5_bytes += len;
    }
  }
  std::vector<uint64_t> digests(blocks.size());
  out.Add("hash.md5_mb_per_s",
          ProbeMbPerS(tracer, "hash.Md5HashBitsBatch", md5_bytes, [&] {
            fsx::Md5HashBitsBatch(blocks.data(), blocks.size(), 64, 0,
                                  digests.data());
          }),
          "MB/s");

  // delta: zd encode of every changed file against its old version.
  uint64_t zd_bytes = 0;
  for (const auto& [f_old, f_new] : pairs) {
    zd_bytes += f_new->size();
  }
  out.Add("delta.zd_encode_mb_per_s",
          ProbeMbPerS(tracer, "delta.ZdEncode", zd_bytes, [&] {
            for (const auto& [f_old, f_new] : pairs) {
              auto d = fsx::ZdEncode(*f_old, *f_new);
              sink += d.ok() ? d->size() : 0;
            }
          }),
          "MB/s");

  // compress: new files and changed files up to `small_limit`.
  std::vector<const fsx::Bytes*> small;
  uint64_t small_bytes = 0;
  for (const auto& [name, data] : new_c) {
    auto it = old_c.find(name);
    if (it == old_c.end() ||
        (it->second != data && data.size() <= small_limit)) {
      small.push_back(&data);
      small_bytes += data.size();
    }
  }
  out.Add("compress.mb_per_s",
          ProbeMbPerS(tracer, "compress.Compress", small_bytes, [&] {
            for (const fsx::Bytes* f : small) {
              sink += fsx::Compress(*f).size();
            }
          }),
          "MB/s");
  g_probe_sink += sink;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / v.size();
}

void AddTraceShare(const Tracer& tracer, const EndToEnd& e, RunResult& out) {
  std::vector<double> ms;
  for (const OpSample& op : e.ops) {
    ms.push_back(op.update_s * 1e3);
  }
  out.Add("trace.op_ms", Median(ms), "ms");
  const uint64_t total = tracer.TotalNs("bench.op");
  out.Add("trace.layer_share",
          total == 0 ? 0.0
                     : 1.0 - static_cast<double>(tracer.SelfNs("bench.op")) /
                                 total,
          "ratio");
}

void AddMatchCounts(const std::vector<MatchCounts>& m, RunResult& out) {
  std::vector<double> sent, derived, candidates, confirmed;
  for (const MatchCounts& c : m) {
    sent.push_back(c.hashes_sent);
    derived.push_back(c.hashes_derived);
    candidates.push_back(c.candidates);
    confirmed.push_back(c.confirmed);
  }
  out.Add("core.hashes_sent", Mean(sent), "count");
  out.Add("core.hashes_derived", Mean(derived), "count");
  out.Add("core.candidates", Mean(candidates), "count");
  out.Add("core.confirmed", Mean(confirmed), "count");
  out.Add("core.verify_yield",
          Mean(candidates) == 0 ? 0.0 : Mean(confirmed) / Mean(candidates),
          "ratio");
}

void AddPhaseBytes(const std::vector<fsx::obs::SyncObserver>& obs,
                   RunResult& out) {
  for (int p = 0; p <= static_cast<int>(fsx::obs::Phase::kFallback); ++p) {
    const auto phase = static_cast<fsx::obs::Phase>(p);
    std::vector<double> bytes;
    for (const fsx::obs::SyncObserver& o : obs) {
      bytes.push_back(static_cast<double>(o.phase_bytes(phase)));
    }
    out.Add(std::string("core.phase_bytes.") + fsx::obs::PhaseName(phase),
            Mean(bytes), "bytes");
  }
}

void AddEndToEnd(const EndToEnd& e, RunResult& out) {
  std::vector<double> mb_per_s, link_s, update_ms, wire, rounds;
  const fsx::LinkModel link = SlowLink();
  for (const OpSample& op : e.ops) {
    const fsx::TrafficStats& t = e.traffic[op.update];
    mb_per_s.push_back(op.bytes / 1e6 / op.sync_s);
    link_s.push_back(op.sync_s + link.TransferSeconds(t));
    update_ms.push_back(op.update_s * 1e3);
  }
  for (const fsx::TrafficStats& t : e.traffic) {
    wire.push_back(static_cast<double>(t.total_bytes()));
    rounds.push_back(static_cast<double>(t.roundtrips));
  }
  out.Add("setup_s", e.setup_s, "s");
  out.Add("sync_mb_per_s", Median(mb_per_s), "MB/s");
  out.Add("wire_bytes", Mean(wire), "bytes");
  out.Add("rounds", Mean(rounds), "count");
  out.Add("link_s", Median(link_s), "s");
  out.Add("update_s", Median(update_ms) / 1e3, "s");
  out.Add("syncs_per_s",
          e.syncs_per_s > 0 ? e.syncs_per_s : 1e3 / Median(update_ms), "1/s");
  out.Add("client_sync_p50_ms", Median(update_ms), "ms");
  out.Add("client_sync_tail_ms", TailLatency(update_ms), "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
