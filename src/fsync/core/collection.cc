#include "fsync/core/collection.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "fsync/compress/codec.h"
#include "fsync/core/endpoint.h"
#include "fsync/core/server_cache.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Fingerprint-exchange cost: the client announces (name, fingerprint) per
// file; we charge 16 bytes plus the name for each file in the client set.
uint64_t FingerprintExchangeBytes(const Collection& client) {
  uint64_t total = 0;
  for (const auto& [name, data] : client) {
    total += 16 + name.size() + 1;
  }
  return total;
}

// One multiplexed per-file session riding the shared channel. The server
// side is the caching wrapper: with a shared cache installed, a fan-out
// of identical collection syncs serves every per-file response from it.
struct FileSession {
  std::string name;
  std::unique_ptr<SyncClientEndpoint> client_ep;
  std::unique_ptr<CachedServerEndpoint> server_ep;
  bool fallback = false;
  // Taken from the endpoints when the session finishes, so that both can
  // be freed while the rest of the batch is still running.
  Bytes result;
  uint64_t delta_bytes = 0;
  uint64_t continuation_bits = 0;  // counted only with an observer
};

// Pool lanes the multiplexed drivers step their sessions on. Sessions
// are independent, so without a cache they step concurrently. With a
// shared cache they step on one lane: two sessions racing on equal
// content would turn a serial hit into two misses, and the cache's
// counters and LRU order must stay a function of the input.
int SessionLanes(const SyncConfig& config, const cache::SyncCache* cache) {
  return cache != nullptr ? 1 : config.num_threads;
}

// Splits a batch message into its first `count` length-prefixed
// payloads, as views into `batch` (no copies). A malformed batch yields
// the payloads ahead of the fault plus the fault itself, so the caller
// can still step those first and report errors in a serial loop's order.
struct SplitBatch {
  std::vector<ByteSpan> payloads;
  Status status;
};

SplitBatch SplitPayloads(ByteSpan batch, size_t count) {
  SplitBatch out;
  out.payloads.reserve(count);
  BitReader in(batch);
  while (out.payloads.size() < count) {
    StatusOr<uint64_t> len = in.ReadVarint();
    if (!len.ok()) {
      out.status = len.status();
      break;
    }
    StatusOr<ByteSpan> payload = in.ReadByteSpan(*len);
    if (!payload.ok()) {
      out.status = payload.status();
      break;
    }
    out.payloads.push_back(*payload);
  }
  return out;
}

// `client_fps` / `server_fps` (the announce and classify fingerprints, or
// the tree driver's manifests) spare each side's endpoint one whole-file
// hash per session; a file missing from one (new at the client) is
// hashed by its endpoint.
std::vector<FileSession> BuildFileSessions(
    const std::vector<std::string>& names, const Collection& client,
    const Collection& server, const SyncConfig& config,
    cache::SyncCache* cache, obs::SyncObserver* obs,
    const TreeManifest& client_fps, const TreeManifest& server_fps) {
  static const Bytes kEmpty;
  auto fp_of = [](const TreeManifest& fps,
                  const std::string& name) -> const Fingerprint* {
    auto it = fps.find(name);
    return it != fps.end() ? &it->second.fp : nullptr;
  };
  std::vector<FileSession> sessions;
  sessions.reserve(names.size());
  for (const std::string& name : names) {
    auto cit = client.find(name);
    const Bytes& f_old = cit != client.end() ? cit->second : kEmpty;
    const Bytes& f_new = server.at(name);
    FileSession s;
    s.name = name;
    s.client_ep = std::make_unique<SyncClientEndpoint>(
        f_old, config, fp_of(client_fps, name));
    s.server_ep = std::make_unique<CachedServerEndpoint>(
        f_new, config, cache, obs, fp_of(server_fps, name));
    sessions.push_back(std::move(s));
  }
  return sessions;
}

// Every file's initial request, concatenated in file order: the batch the
// multiplexed loop consumes first. Callers send it themselves so they can
// pipeline it behind other same-direction messages (a consecutive
// same-direction send costs no roundtrip).
Bytes BuildInitialRequestBatch(std::vector<FileSession>& sessions,
                               int lanes) {
  std::vector<Bytes> requests =
      par::ParallelMap(lanes, sessions.size(), [&](size_t i) {
        return sessions[i].client_ep->MakeRequest();
      });
  BitWriter batch;
  for (const Bytes& req : requests) {
    batch.WriteVarint(req.size());
    batch.WriteBytes(req);
  }
  return batch.Finish();
}

struct MultiplexTotals {
  uint64_t delta_bytes = 0;  // encoded delta payload across all sessions
};

// The shared heart of SyncCollectionBatched and SyncCollectionTree: runs
// every per-file session to completion with ONE message per direction per
// round for the whole batch, then one extra exchange for the rare
// fallbacks. `c2s` is the already-received initial request batch. On
// success every session holds its reconstruction in `result`.
//
// Each half-round splits the incoming batch into per-file payloads, steps
// every live session's endpoint across `lanes` pool lanes into a slot
// per session, then writes the reply batch and updates the live set in
// file order. The wire bytes and the first error returned are the serial
// loop's at any lane count. No endpoint stepped here touches the
// observer unless a cache is installed, and then `lanes` is 1
// (SessionLanes).
StatusOr<MultiplexTotals> RunMultiplexedSessions(
    std::vector<FileSession>& sessions, const SyncConfig& config, int lanes,
    SimulatedChannel& channel, obs::SyncObserver* obs, Bytes c2s) {
  using Dir = SimulatedChannel::Direction;
  bool first = true;
  std::vector<size_t> live(sessions.size());  // live session ids, in order
  for (size_t i = 0; i < live.size(); ++i) {
    live[i] = i;
  }
  uint32_t batch_round = 0;
  while (!live.empty()) {
    obs::SetRound(obs, ++batch_round);
    const auto round_start = obs != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    // Server: one sub-payload per live file.
    obs::SetPhase(obs, obs::Phase::kCandidates);
    SplitBatch up = SplitPayloads(c2s, live.size());
    std::vector<StatusOr<Bytes>> replies(up.payloads.size(),
                                         Status::Internal("not stepped"));
    par::ParallelFor(lanes, replies.size(), [&](size_t i) {
      CachedServerEndpoint& ep = *sessions[live[i]].server_ep;
      replies[i] = first ? ep.OnRequest(up.payloads[i])
                         : ep.OnClientMessage(up.payloads[i]);
    });
    BitWriter batch;
    for (const StatusOr<Bytes>& reply : replies) {
      FSYNC_RETURN_IF_ERROR(reply.status());
      batch.WriteVarint(reply->size());
      batch.WriteBytes(*reply);
    }
    FSYNC_RETURN_IF_ERROR(up.status);
    first = false;
    channel.Send(Dir::kServerToClient, batch.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes s2c, channel.Receive(Dir::kServerToClient));

    // Client: consume replies; files whose session finished drop out
    // (the server knows too: its endpoint reports done()).
    SplitBatch down = SplitPayloads(s2c, live.size());
    std::vector<StatusOr<std::optional<Bytes>>> answers(
        down.payloads.size(), Status::Internal("not stepped"));
    par::ParallelFor(lanes, answers.size(), [&](size_t i) {
      answers[i] =
          sessions[live[i]].client_ep->OnServerMessage(down.payloads[i]);
    });
    BitWriter next;
    std::vector<size_t> still_live;
    for (size_t i = 0; i < answers.size(); ++i) {
      FSYNC_RETURN_IF_ERROR(answers[i].status());
      const std::optional<Bytes>& answer = *answers[i];
      FileSession& s = sessions[live[i]];
      if (answer.has_value()) {
        next.WriteVarint(answer->size());
        next.WriteBytes(*answer);
        still_live.push_back(live[i]);
      } else {
        // The server's endpoint reaches done() in the same step, so both
        // sides agree on the live set without signalling.
        s.fallback = s.client_ep->needs_fallback();
        s.delta_bytes = s.server_ep->delta_payload_bytes();
        if (obs != nullptr) {
          for (const RoundTrace& t : s.client_ep->trace()) {
            s.continuation_bits +=
                static_cast<uint64_t>(t.continuation_hashes) *
                EffectiveContinuationBits(config, t.round);
          }
        }
        // A fallback session keeps its endpoints for the exchange below.
        if (!s.fallback && s.client_ep->done()) {
          s.result = s.client_ep->TakeResult();
          s.client_ep.reset();
          s.server_ep.reset();
        }
      }
    }
    FSYNC_RETURN_IF_ERROR(down.status);
    live = std::move(still_live);
    if (!live.empty()) {
      obs::SetPhase(obs, obs::Phase::kVerification);
      channel.Send(Dir::kClientToServer, next.Finish());
      FSYNC_ASSIGN_OR_RETURN(c2s, channel.Receive(Dir::kClientToServer));
    }
    if (obs != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - round_start;
      obs->RecordRound(
          batch_round,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

  MultiplexTotals totals;
  uint64_t continuation_bits = 0;
  for (const FileSession& s : sessions) {
    totals.delta_bytes += s.delta_bytes;
    continuation_bits += s.continuation_bits;
  }
  if (obs != nullptr) {
    // As in SynchronizeFile: move the embedded delta payloads and the
    // continuation-hash bits out of the candidate phase, summed over
    // every multiplexed per-file session. Clamped moves preserve totals.
    obs->Reattribute(obs::Phase::kCandidates, obs::Phase::kDelta,
                     obs::Flow::kDown, totals.delta_bytes);
    obs->Reattribute(obs::Phase::kCandidates, obs::Phase::kContinuation,
                     obs::Flow::kDown, continuation_bits / 8);
  }

  // Fallbacks (rare): one extra exchange for all of them.
  std::vector<size_t> fallback_ids;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].fallback) {
      fallback_ids.push_back(i);
    }
  }
  if (!fallback_ids.empty()) {
    obs::SetPhase(obs, obs::Phase::kFallback);
    BitWriter ask;
    ask.WriteVarint(fallback_ids.size());
    for (size_t i : fallback_ids) {
      ask.WriteVarint(i);
    }
    channel.Send(Dir::kClientToServer, ask.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes ask_msg,
                           channel.Receive(Dir::kClientToServer));
    BitReader ain(ask_msg);
    FSYNC_ASSIGN_OR_RETURN(uint64_t n, ain.ReadVarint());
    BitWriter full_batch;
    for (uint64_t k = 0; k < n; ++k) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t idx, ain.ReadVarint());
      if (idx >= sessions.size() || sessions[idx].server_ep == nullptr) {
        return Status::DataLoss("batched sync: bad fallback index");
      }
      Bytes full = sessions[idx].server_ep->OnFallbackRequest();
      full_batch.WriteVarint(full.size());
      full_batch.WriteBytes(full);
    }
    channel.Send(Dir::kServerToClient, full_batch.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes full_msg,
                           channel.Receive(Dir::kServerToClient));
    BitReader fin(full_msg);
    for (size_t i : fallback_ids) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, fin.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(Bytes payload, fin.ReadBytes(len));
      FSYNC_RETURN_IF_ERROR(
          sessions[i].client_ep->OnFallbackTransfer(payload));
    }
  }

  for (FileSession& s : sessions) {
    if (s.client_ep == nullptr) {
      continue;  // finished and freed in the loop
    }
    if (!s.client_ep->done()) {
      return Status::Internal("batched sync: unfinished session");
    }
    s.result = s.client_ep->TakeResult();
  }
  return totals;
}

// Stream-compresses `data`, memoized under its content fingerprint (the
// compressed payload is a pure function of the bytes, so the key needs
// nothing else). Serves the tree driver's small-file bundles: in a
// fan-out every client's bundle re-compresses the same files.
Bytes CachedCompress(cache::SyncCache* cache, const Fingerprint& fp,
                     ByteSpan data, obs::SyncObserver* obs) {
  if (cache == nullptr) {
    return Compress(data);
  }
  const cache::CacheKey key = cache::ContentKey(fp, /*tag=*/0);
  if (std::optional<cache::SyncCache::Hit> hit = cache->Get(key, obs)) {
    return std::move(hit->payload);
  }
  const auto start = std::chrono::steady_clock::now();
  Bytes comp = Compress(data);
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  cache->Put(key, comp, {}, ns, obs);
  return comp;
}

// Parallel manifest hashing: fingerprints are computed across the worker
// pool but assembled in path order, so the manifest (and therefore every
// wire byte derived from it) is identical at any thread count.
TreeManifest BuildManifestParallel(const Collection& files,
                                   int num_threads) {
  if (num_threads <= 1) {
    return BuildTreeManifest(files);
  }
  std::vector<const Collection::value_type*> items;
  items.reserve(files.size());
  for (const auto& kv : files) {
    items.push_back(&kv);
  }
  std::vector<Fingerprint> fps(items.size());
  par::ParallelFor(num_threads, items.size(), [&](size_t i) {
    fps[i] = FileFingerprint(items[i]->second);
  });
  TreeManifest out;
  for (size_t i = 0; i < items.size(); ++i) {
    out[items[i]->first] = TreeEntry{fps[i], items[i]->second.size()};
  }
  return out;
}

}  // namespace

StatusOr<CollectionSyncResult> SyncCollectionWith(
    const Collection& client, const Collection& server,
    const ProtocolEntry& protocol, obs::SyncObserver* obs) {
  CollectionSyncResult result;
  result.files_total = server.size();
  // The fingerprint exchange is charged out-of-band (no channel carries
  // it); mirror it into the observer so phase sums match the stats.
  const uint64_t exchange = FingerprintExchangeBytes(client);
  result.stats.client_to_server_bytes = exchange;
  obs::AddBytes(obs, obs::Phase::kHandshake, obs::Flow::kUp, exchange);

  // Files the client holds with equal bytes are settled by the exchange;
  // every other server file runs the protocol on its own channel.
  struct FileRun {
    const std::string* name;
    const Bytes* f_old;
    const Bytes* f_new;
  };
  static const Bytes kEmpty;
  std::vector<FileRun> runs;
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    if (it == client.end()) {
      ++result.files_new;
    } else if (it->second == current) {
      ++result.files_unchanged;
      result.reconstructed[name] = current;
      continue;
    }
    runs.push_back({&name, it != client.end() ? &it->second : &kEmpty,
                    &current});
  }

  // An attached observer follows one session at a time, so observed runs
  // stay on one lane. The fold takes the slots in collection order, so
  // results, stats and the first error are the serial loop's.
  std::vector<StatusOr<ProtocolOutcome>> outcomes(
      runs.size(), Status::Internal("not run"));
  par::ParallelFor(obs != nullptr ? 1 : protocol.num_threads, runs.size(),
                   [&](size_t i) {
                     SimulatedChannel channel;
                     outcomes[i] = protocol.run(*runs[i].f_old,
                                                *runs[i].f_new, channel, obs);
                   });
  uint64_t max_roundtrips = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    FSYNC_ASSIGN_OR_RETURN(ProtocolOutcome r, std::move(outcomes[i]));
    if (r.reconstructed != *runs[i].f_new) {
      return Status::Internal(protocol.name +
                              " collection: reconstruction mismatch");
    }
    result.stats.client_to_server_bytes += r.stats.client_to_server_bytes;
    result.stats.server_to_client_bytes += r.stats.server_to_client_bytes;
    max_roundtrips = std::max(max_roundtrips, r.stats.roundtrips);
    result.map_server_to_client_bytes += r.map_server_to_client_bytes;
    result.map_client_to_server_bytes += r.map_client_to_server_bytes;
    result.delta_bytes += r.delta_bytes;
    result.reconstructed[*runs[i].name] = std::move(r.reconstructed);
  }
  result.stats.roundtrips = max_roundtrips + 1;  // +1 fingerprint exchange
  return result;
}

StatusOr<CollectionSyncResult> SyncCollectionBatched(
    const Collection& client, const Collection& server,
    const SyncConfig& config, SimulatedChannel& channel,
    obs::SyncObserver* obs, cache::SyncCache* cache) {
  using Dir = SimulatedChannel::Direction;
  ObservedSession scope(channel, obs, "session-batched");
  CollectionSyncResult result;
  result.files_total = server.size();

  // --- 1. Client announces (name, fingerprint) for every file. Each
  //         side hashes its files once, across the pool; the sessions
  //         below reuse these fingerprints. ---
  obs::SetPhase(obs, obs::Phase::kHandshake);
  const TreeManifest client_fps =
      BuildManifestParallel(client, config.num_threads);
  {
    BitWriter msg;
    msg.WriteVarint(client_fps.size());
    for (const auto& [name, entry] : client_fps) {
      msg.WriteVarint(name.size());
      msg.WriteBytes(ToBytes(name));
      msg.WriteBytes(ByteSpan(entry.fp.data(), entry.fp.size()));
    }
    channel.Send(Dir::kClientToServer, msg.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes announce,
                         channel.Receive(Dir::kClientToServer));

  // --- 2. Server classifies: per client file 2 bits (kept / sync /
  //         delete), then the list of names only it has, then the adopt
  //         list: planned files whose server content the client already
  //         announced under another name (equal-hash short-circuit; each
  //         is (index into the sorted plan, announce index) so the
  //         client copies locally and both sides skip the session). ---
  std::vector<std::string> sync_names;  // deterministic on both sides
  const TreeManifest server_fps =
      BuildManifestParallel(server, config.num_threads);
  {
    BitReader in(announce);
    FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    if (count != client.size()) {
      return Status::Internal("batched sync: announce desync");
    }
    BitWriter verdict;
    std::map<Fingerprint, uint64_t> announced;  // fp -> first index
    std::vector<std::string> changed_names;
    for (uint64_t i = 0; i < count; ++i) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, in.ReadBytes(len));
      FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, in.ReadBytes(16));
      std::string name = ToString(name_bytes);
      Fingerprint client_fp;
      std::copy(fp_bytes.begin(), fp_bytes.end(), client_fp.begin());
      announced.emplace(client_fp, i);
      auto it = server_fps.find(name);
      if (it == server_fps.end()) {
        verdict.WriteBits(2, 2);  // delete
        continue;
      }
      bool same = it->second.fp == client_fp;
      verdict.WriteBits(same ? 0 : 1, 2);
      if (!same) {
        changed_names.push_back(std::move(name));
      }
    }
    std::vector<std::string> new_names;
    for (const auto& [name, data] : server) {
      if (!client.contains(name)) {
        new_names.push_back(name);
      }
    }
    verdict.WriteVarint(new_names.size());
    for (const std::string& name : new_names) {
      verdict.WriteVarint(name.size());
      verdict.WriteBytes(ToBytes(name));
    }
    // The server's copy of the sorted plan; identical to the client's
    // sync_names before adoptions are removed.
    std::vector<std::string> planned = std::move(changed_names);
    planned.insert(planned.end(), new_names.begin(), new_names.end());
    std::sort(planned.begin(), planned.end());
    std::vector<std::pair<uint64_t, uint64_t>> adopt_pairs;
    for (uint64_t i = 0; i < planned.size(); ++i) {
      auto it = announced.find(server_fps.at(planned[i]).fp);
      if (it != announced.end()) {
        adopt_pairs.emplace_back(i, it->second);
      }
    }
    verdict.WriteVarint(adopt_pairs.size());
    for (const auto& [idx, src] : adopt_pairs) {
      verdict.WriteVarint(idx);
      verdict.WriteVarint(src);
    }
    channel.Send(Dir::kServerToClient, verdict.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes verdict_msg,
                         channel.Receive(Dir::kServerToClient));
  {
    BitReader in(verdict_msg);
    for (const auto& [name, data] : client) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t code, in.ReadBits(2));
      if (code == 0) {
        result.reconstructed[name] = data;
        ++result.files_unchanged;
      } else if (code == 1) {
        sync_names.push_back(name);
      }  // code 2: deleted -> dropped
    }
    FSYNC_ASSIGN_OR_RETURN(uint64_t n_new, in.ReadVarint());
    if (n_new > verdict_msg.size()) {
      return Status::DataLoss("batched sync: implausible new-file count");
    }
    for (uint64_t i = 0; i < n_new; ++i) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, in.ReadBytes(len));
      sync_names.push_back(ToString(name_bytes));
      ++result.files_new;
    }
    std::sort(sync_names.begin(), sync_names.end());
    // Adoptions: copy the named announce entry's content locally and
    // drop the file from the session plan.
    FSYNC_ASSIGN_OR_RETURN(uint64_t n_adopts, in.ReadVarint());
    if (n_adopts > sync_names.size()) {
      return Status::DataLoss("batched sync: implausible adopt count");
    }
    if (n_adopts > 0) {
      std::vector<const std::string*> announce_order;
      announce_order.reserve(client.size());
      for (const auto& kv : client) {
        announce_order.push_back(&kv.first);
      }
      std::vector<bool> adopted(sync_names.size(), false);
      for (uint64_t k = 0; k < n_adopts; ++k) {
        FSYNC_ASSIGN_OR_RETURN(uint64_t idx, in.ReadVarint());
        FSYNC_ASSIGN_OR_RETURN(uint64_t src, in.ReadVarint());
        if (idx >= sync_names.size() || src >= announce_order.size()) {
          return Status::DataLoss("batched sync: bad adopt reference");
        }
        result.reconstructed[sync_names[idx]] =
            client.at(*announce_order[src]);
        adopted[idx] = true;
        obs::AddEvent(obs, obs::Event::kRenameAdopted);
      }
      std::vector<std::string> rest;
      rest.reserve(sync_names.size() - n_adopts);
      for (size_t i = 0; i < sync_names.size(); ++i) {
        if (!adopted[i]) {
          rest.push_back(std::move(sync_names[i]));
        }
      }
      sync_names = std::move(rest);
    }
  }

  // --- 3. Multiplex the per-file sessions, one message per direction
  //         per round for the whole batch; then the fallbacks. ---
  const int lanes = SessionLanes(config, cache);
  std::vector<FileSession> sessions = BuildFileSessions(
      sync_names, client, server, config, cache, obs, client_fps, server_fps);
  channel.Send(Dir::kClientToServer,
               BuildInitialRequestBatch(sessions, lanes));
  FSYNC_ASSIGN_OR_RETURN(Bytes c2s, channel.Receive(Dir::kClientToServer));
  FSYNC_ASSIGN_OR_RETURN(MultiplexTotals totals,
                         RunMultiplexedSessions(sessions, config, lanes,
                                                channel, obs, std::move(c2s)));
  result.delta_bytes = totals.delta_bytes;
  for (FileSession& s : sessions) {
    result.reconstructed[s.name] = std::move(s.result);
  }
  result.stats = channel.stats();
  return result;
}

StatusOr<TreeSyncResult> SyncCollectionTree(const Collection& client,
                                            const Collection& server,
                                            const TreeSyncParams& params,
                                            SimulatedChannel& channel,
                                            obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  ObservedSession scope(channel, obs, "session-tree");
  TreeSyncResult result;
  result.files_total = server.size();

  // --- 1. Manifest reconciliation (trie walk, Phase::kManifest). ---
  TreeManifest client_manifest =
      BuildManifestParallel(client, params.config.num_threads);
  TreeManifest server_manifest =
      BuildManifestParallel(server, params.config.num_threads);
  FSYNC_ASSIGN_OR_RETURN(
      ManifestDiff diff,
      ManifestReconcile(client_manifest, server_manifest, params.merkle,
                        channel, obs));
  if (obs != nullptr) {
    obs->set_protocol("session-tree");  // the nested scope renamed it
  }
  result.manifest_rounds = diff.rounds;
  result.manifest_bytes = diff.stats.total_bytes();

  // Mirror semantics, applied locally: start from the client snapshot,
  // drop client-only files, adopt content the client already holds under
  // another path (zero wire bytes past the walk).
  result.reconstructed = client;
  for (const std::string& path : diff.extra) {
    result.reconstructed.erase(path);
  }
  for (const AdoptOp& op : diff.adopts) {
    result.reconstructed[op.path] = client.at(op.from);
    obs::AddEvent(obs, obs::Event::kRenameAdopted);
  }
  result.files_adopted = diff.adopts.size();
  result.files_unchanged =
      server.size() - diff.adopts.size() - diff.stale.size();
  for (const std::string& path : diff.stale) {
    if (!client.contains(path)) {
      ++result.files_new;
    }
  }
  for (const AdoptOp& op : diff.adopts) {
    if (!client.contains(op.path)) {
      ++result.files_new;
    }
  }

  if (!diff.stale.empty()) {
    // Both sides partition the residual stale set by the server-side
    // size, which the walk already delivered to the client.
    std::vector<std::string> small, large;
    for (const std::string& path : diff.stale) {
      (diff.stale_entries.at(path).size <= params.small_file_threshold
           ? small
           : large)
          .push_back(path);
    }
    result.files_small = small.size();
    result.files_sessioned = large.size();

    // --- 2. Sync plan: the client requests every residual stale path,
    //         then pipelines the large files' initial session requests
    //         behind it (consecutive same-direction sends share one
    //         roundtrip with the server's replies below). ---
    obs::SetPhase(obs, obs::Phase::kManifest);
    {
      BitWriter plan;
      plan.WriteVarint(diff.stale.size());
      for (const std::string& path : diff.stale) {
        plan.WriteVarint(path.size());
        plan.WriteBytes(ToBytes(path));
      }
      channel.Send(Dir::kClientToServer, plan.Finish());
    }
    const int lanes = SessionLanes(params.config, params.cache);
    std::vector<FileSession> sessions =
        BuildFileSessions(large, client, server, params.config, params.cache,
                          obs, client_manifest, server_manifest);
    if (!sessions.empty()) {
      obs::SetPhase(obs, obs::Phase::kCandidates);
      channel.Send(Dir::kClientToServer,
                   BuildInitialRequestBatch(sessions, lanes));
    }

    // Server: parse the plan; answer the small files with one compressed
    // bundle in plan order.
    FSYNC_ASSIGN_OR_RETURN(Bytes plan_msg,
                           channel.Receive(Dir::kClientToServer));
    {
      BitReader pin(plan_msg);
      FSYNC_ASSIGN_OR_RETURN(uint64_t n_want, pin.ReadVarint());
      if (n_want > plan_msg.size()) {
        return Status::DataLoss("tree sync: implausible plan size");
      }
      BitWriter bundle;
      uint64_t n_small = 0;
      for (uint64_t i = 0; i < n_want; ++i) {
        FSYNC_ASSIGN_OR_RETURN(uint64_t len, pin.ReadVarint());
        FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, pin.ReadBytes(len));
        std::string want = ToString(name_bytes);
        auto it = server.find(want);
        if (it == server.end()) {
          return Status::DataLoss("tree sync: unknown path in plan");
        }
        if (it->second.size() <= params.small_file_threshold) {
          Bytes comp = CachedCompress(params.cache,
                                      server_manifest.at(want).fp,
                                      it->second, obs);
          bundle.WriteVarint(comp.size());
          bundle.WriteBytes(comp);
          ++n_small;
        }
      }
      if (n_small > 0) {
        obs::SetPhase(obs, obs::Phase::kLiterals);
        channel.Send(Dir::kServerToClient, bundle.Finish());
      }
    }

    // Client: unpack the small batch; the manifest fingerprint verifies
    // each file without any extra wire traffic.
    if (!small.empty()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes bundle_msg,
                             channel.Receive(Dir::kServerToClient));
      BitReader bin(bundle_msg);
      for (const std::string& path : small) {
        FSYNC_ASSIGN_OR_RETURN(uint64_t len, bin.ReadVarint());
        FSYNC_ASSIGN_OR_RETURN(Bytes comp, bin.ReadBytes(len));
        FSYNC_ASSIGN_OR_RETURN(Bytes data, Decompress(comp));
        if (FileFingerprint(data) != diff.stale_entries.at(path).fp) {
          return Status::DataLoss("tree sync: small-file batch mismatch");
        }
        result.reconstructed[path] = std::move(data);
        obs::AddEvent(obs, obs::Event::kSmallFileBatched);
      }
    }

    // --- 3. Multiplexed per-file sessions for the large files. ---
    if (!sessions.empty()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes c2s,
                             channel.Receive(Dir::kClientToServer));
      FSYNC_ASSIGN_OR_RETURN(
          MultiplexTotals totals,
          RunMultiplexedSessions(sessions, params.config, lanes, channel,
                                 obs, std::move(c2s)));
      result.delta_bytes = totals.delta_bytes;
      for (FileSession& s : sessions) {
        result.reconstructed[s.name] = std::move(s.result);
      }
    }
  }

  result.stats = channel.stats();
  return result;
}

uint64_t CollectionFullTransferBytes(const Collection& client,
                                     const Collection& server) {
  uint64_t total = FingerprintExchangeBytes(client);
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    if (it != client.end() && it->second == current) {
      continue;
    }
    total += current.size();
  }
  return total;
}

uint64_t CollectionCompressedTransferBytes(const Collection& client,
                                           const Collection& server) {
  uint64_t total = FingerprintExchangeBytes(client);
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    if (it != client.end() && it->second == current) {
      continue;
    }
    total += Compress(current).size();
  }
  return total;
}

StatusOr<uint64_t> CollectionDeltaBytes(const Collection& client,
                                        const Collection& server,
                                        DeltaCodec codec) {
  uint64_t total = FingerprintExchangeBytes(client);
  static const Bytes kEmpty;
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    const Bytes& outdated = it != client.end() ? it->second : kEmpty;
    if (it != client.end() && it->second == current) {
      continue;
    }
    FSYNC_ASSIGN_OR_RETURN(Bytes delta,
                           DeltaEncode(codec, outdated, current));
    // Sanity: the delta must round-trip.
    FSYNC_ASSIGN_OR_RETURN(Bytes back, DeltaDecode(codec, outdated, delta));
    if (back != current) {
      return Status::Internal("delta baseline: round-trip mismatch");
    }
    total += delta.size();
  }
  return total;
}

}  // namespace fsx
