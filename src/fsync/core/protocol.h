// One per-file protocol interface for every synchronization protocol in
// the library. Each protocol's factory adapts its channel-based entry
// point to one signature, so the collection driver (SyncCollectionWith),
// the differential runner and the fault injector can drive them
// interchangeably. Adding a protocol is one factory plus one line in
// ConformanceProtocols(), which also enrolls it in the conformance suite.
#ifndef FSYNC_CORE_PROTOCOL_H_
#define FSYNC_CORE_PROTOCOL_H_

#include <functional>
#include <string>
#include <vector>

#include "fsync/cdc/cdc_sync.h"
#include "fsync/core/config.h"
#include "fsync/multiround/multiround.h"
#include "fsync/net/channel.h"
#include "fsync/rsync/rsync.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"
#include "fsync/zsync/zsync.h"

namespace fsx {

/// Protocol-independent view of one synchronization run.
struct ProtocolOutcome {
  Bytes reconstructed;
  TrafficStats stats;  // as reported by the protocol's own result
  bool fell_back = false;
  int rounds = 0;  // protocol rounds when the protocol counts them
  // The session protocol's map-construction and delta traffic; zero for
  // the protocols that do not split their bytes this way.
  uint64_t map_server_to_client_bytes = 0;
  uint64_t map_client_to_server_bytes = 0;
  uint64_t delta_bytes = 0;
};

/// Runs one protocol end to end over `channel`. `obs` may be null; when
/// set, the protocol attributes every wire message to a phase through it
/// (the conformance suite cross-checks those sums against the channel's
/// TrafficStats).
using ProtocolFn = std::function<StatusOr<ProtocolOutcome>(
    ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
    obs::SyncObserver* obs)>;

struct ProtocolEntry {
  std::string name;
  ProtocolFn run;
  /// The params' execution knob; SyncCollectionWith fans files out this
  /// wide. Never changes a wire byte.
  int num_threads = 1;
};

/// Classic single-round rsync.
ProtocolEntry RsyncProtocol(const RsyncParams& params = {});
/// rsync with in-place reconstruction.
ProtocolEntry InplaceProtocol(const RsyncParams& params = {});
/// zsync: client-driven range requests against a served control file.
ProtocolEntry ZsyncProtocol(const ZsyncParams& params = {});
/// LBFS-style content-defined chunking.
ProtocolEntry CdcProtocol(const CdcSyncParams& params = {});
/// Pure recursive-partitioning "multiround rsync" (the paper's prior art).
ProtocolEntry MultiroundProtocol(const MultiroundParams& params = {});
/// The paper's session protocol (SynchronizeFile).
ProtocolEntry SessionProtocol(const SyncConfig& config = {});

/// The conformance registry: rsync, in-place rsync, zsync, CDC,
/// multiround, and the paper's full session protocol (also capped at two
/// roundtrips), each with its library-default parameters.
const std::vector<ProtocolEntry>& ConformanceProtocols();

/// The same registry with every protocol's `num_threads` execution knob
/// set. The determinism contract says any value must produce wire traffic
/// and results bit-identical to ConformanceProtocols(); the threaded
/// conformance suite runs both and compares channel transcripts.
std::vector<ProtocolEntry> ThreadedConformanceProtocols(int num_threads);

}  // namespace fsx

#endif  // FSYNC_CORE_PROTOCOL_H_
