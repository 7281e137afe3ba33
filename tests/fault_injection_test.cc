// Adversarial conformance: every protocol is run under every fault family
// (bit flips, truncation, garbage substitution, drops, duplication,
// reordering) at varying target messages. The only acceptable outcomes
// are a non-OK Status or a byte-exact reconstruction — a run that returns
// OK with wrong bytes is silent corruption and fails the suite. Run under
// ASan/UBSan this also proves corrupted inputs never cause memory errors.
#include <gtest/gtest.h>

#include "fsync/core/protocol.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/faults.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

// Shapes exercised under faults: a typical edit, a pure download, and an
// unchanged file (whose short-circuit path has its own messages).
const std::vector<CorpusShape>& FaultShapes() {
  static const std::vector<CorpusShape> kShapes = {
      CorpusShape::kClusteredEdits,
      CorpusShape::kEmptyOld,
      CorpusShape::kIdentical,
  };
  return kShapes;
}

class FaultInjection : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultInjection, ErrorOrExactUnderEveryFault) {
  const uint64_t base_seed = SeedFromEnv(0) * 1000003 + GetParam();
  for (CorpusShape shape : FaultShapes()) {
    CorpusPair pair = MakeCorpusPair(shape, base_seed);
    for (const ProtocolEntry& protocol : ConformanceProtocols()) {
      for (FaultKind kind : AllFaultKinds()) {
        FaultSpec spec;
        spec.kind = kind;
        // Sweep the target across the session's early messages; later
        // indices degenerate to clean runs, which is harmless.
        spec.target_message = GetParam() % 8;
        spec.seed = base_seed ^ (static_cast<uint64_t>(kind) << 32);
        SimulatedChannel channel;
        ArmFault(channel, spec);
        auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
        if (r.ok()) {
          EXPECT_EQ(r->reconstructed, pair.f_new)
              << "SILENT CORRUPTION: " << protocol.name << " under "
              << spec.Label() << " on " << pair.Label()
              << " (FSX_SEED base " << SeedFromEnv(0) << ")";
        }
        // A non-OK status is always acceptable under an active fault.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjection,
                         ::testing::Range<uint64_t>(0, 16));

TEST(FaultInjection, EveryMessageOfOneSessionBitFlipped) {
  // Exhaustive single-bit-flip sweep over each message index of a typical
  // session, for every protocol: whichever message is hit, the outcome
  // contract holds.
  const uint64_t base_seed = SeedFromEnv(99);
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, base_seed);
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    // First count the messages of a clean run.
    SimulatedChannel clean;
    uint64_t messages = 0;
    clean.SetTamper([&messages](SimulatedChannel::Direction, Bytes&) {
      ++messages;
    });
    auto clean_run = protocol.run(pair.f_old, pair.f_new, clean, nullptr);
    ASSERT_TRUE(clean_run.ok()) << protocol.name;
    ASSERT_GT(messages, 0u) << protocol.name;

    for (uint64_t target = 0; target < messages; ++target) {
      FaultSpec spec;
      spec.kind = FaultKind::kBitFlip;
      spec.target_message = target;
      spec.seed = base_seed + target;
      SimulatedChannel channel;
      ArmFault(channel, spec);
      auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
      if (r.ok()) {
        EXPECT_EQ(r->reconstructed, pair.f_new)
            << "SILENT CORRUPTION: " << protocol.name << " under "
            << spec.Label() << " (FSX_SEED " << base_seed << ")";
      }
    }
  }
}

TEST(FaultInjection, TamperEveryMessageStillNoSilentCorruption) {
  // Worst case: every single message is bit-flipped. Nothing useful can
  // complete, but nothing may lie or crash either.
  const uint64_t base_seed = SeedFromEnv(7);
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, base_seed);
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    Rng rng(base_seed);
    SimulatedChannel channel;
    channel.SetTamper([&rng](SimulatedChannel::Direction, Bytes& msg) {
      if (!msg.empty()) {
        uint64_t bit = rng.Uniform(msg.size() * 8);
        msg[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    });
    auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
    if (r.ok()) {
      EXPECT_EQ(r->reconstructed, pair.f_new)
          << "SILENT CORRUPTION: " << protocol.name
          << " with every message tampered (FSX_SEED " << base_seed << ")";
    }
  }
}

}  // namespace
}  // namespace fsx
