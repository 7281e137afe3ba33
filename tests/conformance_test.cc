// Differential conformance sweep: every registered protocol over every
// corpus shape, with reconstruction, accounting, and traffic-bound
// invariants checked by the harness (fsync/testing). Labeled `conformance`
// in CTest; perf PRs must keep this green.
#include <gtest/gtest.h>

#include "fsync/core/protocol.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/differential.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

TEST(Conformance, RegistryCoversAllProtocols) {
  // The acceptance bar: at least six protocol variants and thirty pairs.
  EXPECT_GE(ConformanceProtocols().size(), 6u);
  EXPECT_GE(MakeConformanceCorpus(2, 0).size(), 30u);
}

TEST(Conformance, CorpusIsDeterministic) {
  for (CorpusShape shape : AllCorpusShapes()) {
    CorpusPair a = MakeCorpusPair(shape, 42);
    CorpusPair b = MakeCorpusPair(shape, 42);
    EXPECT_EQ(a.f_old, b.f_old) << CorpusShapeName(shape);
    EXPECT_EQ(a.f_new, b.f_new) << CorpusShapeName(shape);
    CorpusPair c = MakeCorpusPair(shape, 43);
    // Different seeds must vary the data (except the degenerate shapes).
    if (shape != CorpusShape::kBothEmpty) {
      EXPECT_TRUE(a.f_old != c.f_old || a.f_new != c.f_new)
          << CorpusShapeName(shape);
    }
  }
}

TEST(Conformance, CorpusShapesHaveTheirShape) {
  // Spot-check the structural promises the shape names make.
  CorpusPair empty_old = MakeCorpusPair(CorpusShape::kEmptyOld, 7);
  EXPECT_TRUE(empty_old.f_old.empty());
  EXPECT_FALSE(empty_old.f_new.empty());

  CorpusPair empty_new = MakeCorpusPair(CorpusShape::kEmptyNew, 7);
  EXPECT_FALSE(empty_new.f_old.empty());
  EXPECT_TRUE(empty_new.f_new.empty());

  CorpusPair identical = MakeCorpusPair(CorpusShape::kIdentical, 7);
  EXPECT_EQ(identical.f_old, identical.f_new);

  CorpusPair trunc = MakeCorpusPair(CorpusShape::kTruncateTail, 7);
  ASSERT_LE(trunc.f_new.size(), trunc.f_old.size());
  EXPECT_TRUE(std::equal(trunc.f_new.begin(), trunc.f_new.end(),
                         trunc.f_old.begin()));

  CorpusPair odd = MakeCorpusPair(CorpusShape::kOddSizes, 7);
  EXPECT_EQ(odd.f_old.size() % 2, 1u);
}

TEST(Conformance, DifferentialSweepAllProtocolsAllShapes) {
  const uint64_t base_seed = SeedFromEnv(1);
  std::vector<CorpusPair> corpus = MakeConformanceCorpus(2, base_seed);
  ASSERT_GE(corpus.size(), 30u);
  DifferentialReport report = RunDifferential(corpus);
  EXPECT_TRUE(report.ok())
      << "FSX_SEED=" << base_seed << "\n"
      << report.Summary();
  EXPECT_EQ(report.runs, corpus.size() * ConformanceProtocols().size());
}

TEST(Conformance, UnchangedFilesCostAlmostNothing) {
  // The fingerprint short-circuit must keep the identical-file cost to a
  // small constant for the interactive protocols (zsync's control file is
  // proportional to file size by design, so it is bounded separately by
  // the differential traffic factor).
  const uint64_t base_seed = SeedFromEnv(11);
  CorpusPair pair = MakeCorpusPair(CorpusShape::kIdentical, base_seed);
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    if (protocol.name == "zsync") {
      continue;
    }
    SimulatedChannel channel;
    auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
    ASSERT_TRUE(r.ok()) << protocol.name << ": " << r.status().ToString();
    EXPECT_EQ(r->reconstructed, pair.f_new) << protocol.name;
    EXPECT_LT(r->stats.total_bytes(), 256u)
        << protocol.name << " moved bytes for an unchanged file";
  }
}

TEST(Conformance, ReportSummarizesFailures) {
  // A protocol that always returns garbage must be caught and named.
  std::vector<ProtocolEntry> protocols = {
      {"liar",
       [](ByteSpan, ByteSpan, SimulatedChannel& channel,
          obs::SyncObserver*) {
         Bytes one = {1};
         channel.Send(SimulatedChannel::Direction::kClientToServer, one);
         (void)channel.Receive(SimulatedChannel::Direction::kClientToServer);
         ProtocolOutcome out;
         out.reconstructed = {0xBA, 0xD1};
         out.stats = channel.stats();
         return StatusOr<ProtocolOutcome>(std::move(out));
       }},
  };
  std::vector<CorpusPair> corpus = {
      MakeCorpusPair(CorpusShape::kClusteredEdits, 5)};
  DifferentialReport report = RunDifferential(corpus, protocols);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures[0].protocol, "liar");
  EXPECT_NE(report.Summary().find("mismatch"), std::string::npos);
}

}  // namespace
}  // namespace fsx
