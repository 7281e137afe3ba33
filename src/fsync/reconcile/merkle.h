// File-set reconciliation: determine which files differ between two
// replicas with traffic proportional to the number of changed files, not
// the collection size. The paper sidesteps this ("we use a fingerprint
// for each file as this is efficient enough"), deferring to the
// changed-file-identification literature it surveys [1,4,27-30,36,42];
// this module implements the standard hash-trie approach from that line:
// both sides build a binary Merkle trie keyed by H(name) whose leaves
// hold (name, file-fingerprint) pairs; the endpoints walk the tries top
// down, descending only into subtrees whose hashes disagree.
#ifndef FSYNC_RECONCILE_MERKLE_H_
#define FSYNC_RECONCILE_MERKLE_H_

#include <map>
#include <string>
#include <vector>

#include "fsync/hash/fingerprint.h"
#include "fsync/net/channel.h"
#include "fsync/util/status.h"

namespace fsx {

/// (name -> content fingerprint) of one replica's files.
using FileDigestMap = std::map<std::string, Fingerprint>;

/// Computes the digest map of a collection snapshot.
FileDigestMap DigestCollection(const std::map<std::string, Bytes>& files);

/// What the reconciliation discovered (from the client's perspective).
struct ReconcileResult {
  /// Files whose fingerprints differ or that only the server has: the
  /// files the client must fetch/update.
  std::vector<std::string> stale;
  /// Files only the client has: to be deleted under mirror semantics.
  std::vector<std::string> extra;
  TrafficStats stats;
  int rounds = 0;
};

/// Reconciliation tuning.
struct MerkleParams {
  /// Trie node hashes are truncated to this many bytes on the wire.
  uint32_t node_hash_bytes = 8;
  /// Subtrees with at most this many leaves are shipped outright instead
  /// of probed further (cuts roundtrips on small differences).
  uint32_t leaf_batch = 4;
  /// Trie levels descended per round: a mismatching node is answered with
  /// the hashes of its 2^descend_levels descendant subtrees, trading
  /// per-round hash bytes for proportionally fewer roundtrips. 1
  /// reproduces the classic binary walk (and its exact wire format);
  /// the tree-sync driver uses wider descents so the whole manifest
  /// round finishes in a handful of roundtrips even at 100k files.
  uint32_t descend_levels = 1;
};

/// Runs the trie walk between a client holding `client_files` and a
/// server holding `server_files`, over `channel`. Exact: the returned
/// sets always equal the true difference.
StatusOr<ReconcileResult> MerkleReconcile(const FileDigestMap& client_files,
                                          const FileDigestMap& server_files,
                                          const MerkleParams& params,
                                          SimulatedChannel& channel,
                                          obs::SyncObserver* obs = nullptr);

/// Baseline for comparison: the full fingerprint exchange used by
/// SyncCollectionWith (client sends every (name, fingerprint)).
uint64_t FullExchangeBytes(const FileDigestMap& client_files);

}  // namespace fsx

#endif  // FSYNC_RECONCILE_MERKLE_H_
