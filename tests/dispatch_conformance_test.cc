// Pins the second half of the determinism contract: the simd/ dispatch
// tier — like `num_threads` — is a pure execution knob, so every
// protocol must emit wire traffic byte-for-byte identical whichever
// kernel tier (portable scalar, SSE4.2, ARMv8-CRC) the host runs. The
// suite forces each runnable tier in turn and compares full channel
// transcripts against the forced-scalar run, for every registered
// protocol, serial and threaded. On scalar-only machines the tier list
// collapses to {scalar} and the suite degenerates to a self-comparison
// (still verifying ForceTier plumbing). Labeled `conformance`.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fsync/core/protocol.h"
#include "fsync/net/channel.h"
#include "fsync/simd/dispatch.h"
#include "fsync/testing/corpus.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

struct Transcript {
  bool ok = false;
  Bytes reconstructed;
  std::vector<SimulatedChannel::TranscriptEntry> messages;
};

Transcript RunUnderTier(const ProtocolEntry& protocol,
                        const CorpusPair& pair, simd::DispatchTier tier) {
  simd::ForceTier(tier);
  SimulatedChannel channel;
  channel.EnableTranscript();
  auto result = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
  simd::ForceTier(std::nullopt);
  Transcript t;
  t.ok = result.ok();
  if (result.ok()) {
    t.reconstructed = result->reconstructed;
  }
  t.messages = channel.transcript();
  return t;
}

void ExpectIdentical(const Transcript& scalar, const Transcript& tiered,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(scalar.ok, tiered.ok);
  EXPECT_EQ(scalar.reconstructed, tiered.reconstructed);
  ASSERT_EQ(scalar.messages.size(), tiered.messages.size())
      << "message count diverged";
  for (size_t m = 0; m < scalar.messages.size(); ++m) {
    ASSERT_EQ(static_cast<int>(scalar.messages[m].dir),
              static_cast<int>(tiered.messages[m].dir))
        << "message " << m;
    ASSERT_EQ(scalar.messages[m].payload, tiered.messages[m].payload)
        << "payload of message " << m << " diverged";
  }
}

TEST(DispatchConformance, WireTrafficBitIdenticalAcrossTiers) {
  const uint64_t seed = SeedFromEnv(53);
  const auto& protocols = ConformanceProtocols();
  const std::vector<simd::DispatchTier> tiers = simd::AvailableTiers();
  for (CorpusShape shape : AllCorpusShapes()) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    for (const ProtocolEntry& protocol : protocols) {
      Transcript scalar =
          RunUnderTier(protocol, pair, simd::DispatchTier::kScalar);
      for (simd::DispatchTier tier : tiers) {
        Transcript tiered = RunUnderTier(protocol, pair, tier);
        ExpectIdentical(scalar, tiered,
                        protocol.name + " / " + pair.Label() + " / tier " +
                            simd::TierName(tier) +
                            " FSX_SEED=" + std::to_string(seed));
      }
    }
  }
}

TEST(DispatchConformance, TiersComposeWithThreadPool) {
  // Tier x threads: the two execution knobs together must still leave
  // the wire untouched (the HW kernels run inside pool workers here).
  const uint64_t seed = SeedFromEnv(59);
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, seed);
  const auto& serial = ConformanceProtocols();
  std::vector<ProtocolEntry> threaded = ThreadedConformanceProtocols(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t p = 0; p < serial.size(); ++p) {
    Transcript baseline =
        RunUnderTier(serial[p], pair, simd::DispatchTier::kScalar);
    for (simd::DispatchTier tier : simd::AvailableTiers()) {
      Transcript tiered = RunUnderTier(threaded[p], pair, tier);
      ExpectIdentical(baseline, tiered,
                      serial[p].name + " threaded / tier " +
                          simd::TierName(tier) +
                          " FSX_SEED=" + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace fsx
