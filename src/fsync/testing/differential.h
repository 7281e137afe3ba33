// Differential conformance runner: executes every registered protocol
// over every corpus pair on a shared SimulatedChannel and checks the
// invariants the paper's correctness argument rests on — byte-exact
// reconstruction, truthful traffic accounting, a drained channel, and
// traffic bounded by a constant factor of the compressed-full-transfer
// fallback. Protocols are also compared against each other: all must
// produce the same bytes (trivially F_new), which is what makes the
// runner "differential" — a protocol cannot drift without tripping it.
#ifndef FSYNC_TESTING_DIFFERENTIAL_H_
#define FSYNC_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fsync/core/protocol.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/testing/tree_protocols.h"

namespace fsx {

/// Tunables of the invariant checks.
struct DifferentialOptions {
  /// Traffic must not exceed `traffic_factor` x the compressed full
  /// transfer, plus `traffic_slack_bytes` of fixed protocol overhead
  /// (fingerprints, control files, hash rounds on tiny inputs).
  double traffic_factor = 3.0;
  uint64_t traffic_slack_bytes = 8192;
};

/// One violated invariant.
struct DifferentialFailure {
  std::string protocol;
  std::string pair;  // CorpusPair::Label()
  std::string what;
};

/// Aggregate result of a differential sweep.
struct DifferentialReport {
  uint64_t runs = 0;
  uint64_t protocols = 0;
  uint64_t pairs = 0;
  std::vector<DifferentialFailure> failures;

  bool ok() const { return failures.empty(); }
  /// Multi-line human-readable summary (all failures, then totals).
  std::string Summary() const;
};

/// Runs every protocol in `protocols` over every pair in `corpus`.
DifferentialReport RunDifferential(const std::vector<CorpusPair>& corpus,
                                   const std::vector<ProtocolEntry>& protocols,
                                   const DifferentialOptions& options = {});

/// Convenience overload using ConformanceProtocols().
DifferentialReport RunDifferential(const std::vector<CorpusPair>& corpus,
                                   const DifferentialOptions& options = {});

/// Tree-level differential sweep: every tree protocol over every tree
/// pair, checking the same invariants at collection granularity (exact
/// tree reconstruction, truthful accounting, drained channel, complete
/// phase attribution). The traffic bound compares against compressing
/// the whole new tree, plus `traffic_slack_bytes` and a per-file
/// allowance for the manifest/fingerprint exchange.
DifferentialReport RunTreeDifferential(
    const std::vector<TreeCorpusPair>& corpus,
    const std::vector<TreeProtocolEntry>& protocols,
    const DifferentialOptions& options = {});

/// Convenience overload using TreeConformanceProtocols().
DifferentialReport RunTreeDifferential(
    const std::vector<TreeCorpusPair>& corpus,
    const DifferentialOptions& options = {});

}  // namespace fsx

#endif  // FSYNC_TESTING_DIFFERENTIAL_H_
