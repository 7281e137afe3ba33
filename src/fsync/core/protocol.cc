#include "fsync/core/protocol.h"

#include "fsync/core/session.h"

namespace fsx {

namespace {

// Maps the fields every protocol result shares onto ProtocolOutcome.
template <typename Result>
ProtocolOutcome OutcomeOf(Result& r) {
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fell_back_to_full_transfer;
  return out;
}

std::vector<ProtocolEntry> MakeProtocols(int num_threads) {
  RsyncParams rsync;
  rsync.num_threads = num_threads;
  ZsyncParams zsync;
  zsync.num_threads = num_threads;
  CdcSyncParams cdc;
  cdc.num_threads = num_threads;
  MultiroundParams multiround;
  multiround.num_threads = num_threads;
  SyncConfig session;
  session.num_threads = num_threads;
  // The paper's restricted-roundtrip mode: the map phase is cut short and
  // the delta phase must absorb whatever is unresolved.
  SyncConfig capped = session;
  capped.max_roundtrips = 2;
  ProtocolEntry session_capped = SessionProtocol(capped);
  session_capped.name = "session-capped";
  return {
      RsyncProtocol(rsync),
      InplaceProtocol(rsync),
      ZsyncProtocol(zsync),
      CdcProtocol(cdc),
      MultiroundProtocol(multiround),
      SessionProtocol(session),
      session_capped,
  };
}

}  // namespace

ProtocolEntry RsyncProtocol(const RsyncParams& params) {
  return {"rsync",
          [params](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                RsyncResult r,
                RsyncSynchronize(f_old, f_new, params, channel, obs));
            return OutcomeOf(r);
          },
          params.num_threads};
}

ProtocolEntry InplaceProtocol(const RsyncParams& params) {
  return {"inplace",
          [params](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                InplaceSyncResult r,
                InplaceSynchronize(f_old, f_new, params, channel, obs));
            return OutcomeOf(r);
          },
          params.num_threads};
}

ProtocolEntry ZsyncProtocol(const ZsyncParams& params) {
  return {"zsync",
          [params](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                ZsyncSyncResult r,
                ZsyncSynchronize(f_old, f_new, params, channel, obs));
            return OutcomeOf(r);
          },
          params.num_threads};
}

ProtocolEntry CdcProtocol(const CdcSyncParams& params) {
  return {"cdc",
          [params](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                CdcSyncResult r,
                CdcSynchronize(f_old, f_new, params, channel, obs));
            return OutcomeOf(r);
          },
          params.num_threads};
}

ProtocolEntry MultiroundProtocol(const MultiroundParams& params) {
  return {"multiround",
          [params](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                MultiroundResult r,
                MultiroundSynchronize(f_old, f_new, params, channel, obs));
            ProtocolOutcome out = OutcomeOf(r);
            out.rounds = r.rounds;
            return out;
          },
          params.num_threads};
}

ProtocolEntry SessionProtocol(const SyncConfig& config) {
  return {"session",
          [config](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
                   obs::SyncObserver* obs) -> StatusOr<ProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                FileSyncResult r,
                SynchronizeFile(f_old, f_new, config, channel, obs));
            ProtocolOutcome out;
            out.reconstructed = std::move(r.reconstructed);
            out.stats = r.stats;
            out.fell_back = r.fallback;
            out.rounds = r.rounds;
            out.map_server_to_client_bytes = r.map_server_to_client_bytes;
            out.map_client_to_server_bytes = r.map_client_to_server_bytes;
            out.delta_bytes = r.delta_bytes;
            return out;
          },
          config.num_threads};
}

const std::vector<ProtocolEntry>& ConformanceProtocols() {
  static const std::vector<ProtocolEntry> kProtocols = MakeProtocols(1);
  return kProtocols;
}

std::vector<ProtocolEntry> ThreadedConformanceProtocols(int num_threads) {
  return MakeProtocols(num_threads);
}

}  // namespace fsx
