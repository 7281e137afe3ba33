// Chaos suite (CTest label `chaos`): every registered protocol must
// complete bit-exactly over a ReliableChannel whose inner channel runs
// the seeded Bernoulli fault schedules (10-20% drop / duplicate /
// reorder / corrupt rates). Also pins the logical-determinism contract —
// the delivered message stream is independent of the fault schedule —
// and the peer-gone bound: total loss surfaces Status::Unavailable
// after the retry budget, never an unbounded wait. Failures print the
// FSX_SEED that replays them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsync/core/protocol.h"
#include "fsync/core/session.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/faults.h"
#include "fsync/transport/reliable.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

using Direction = SimulatedChannel::Direction;

// Fast virtual-time retransmission for tests: recovery behaviour is
// identical, only the simulated backoff delays shrink.
transport::ReliableParams TestParams() {
  transport::ReliableParams params;
  params.initial_timeout_us = 1000;
  return params;
}

std::string Replay(uint64_t seed) {
  return "replay with FSX_SEED=" + std::to_string(seed);
}

TEST(Chaos, SchedulesAreSeedStable) {
  std::vector<FaultSchedule> a = ChaosSchedules(5);
  std::vector<FaultSchedule> b = ChaosSchedules(5);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 8u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].Label(), b[i].Label());
  }
  std::vector<FaultSchedule> c = ChaosSchedules(6);
  EXPECT_NE(a[0].seed, c[0].seed);
}

TEST(Chaos, AllProtocolsAllSchedulesBitExact) {
  const uint64_t base_seed = SeedFromEnv(4242);
  const std::vector<CorpusShape> shapes = {CorpusShape::kClusteredEdits,
                                           CorpusShape::kBlockMove};
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    for (const FaultSchedule& schedule : ChaosSchedules(base_seed)) {
      for (CorpusShape shape : shapes) {
        CorpusPair pair = MakeCorpusPair(shape, base_seed ^ 0xC0FFEE);
        SCOPED_TRACE(protocol.name + " / " + schedule.Label() + " / " +
                     pair.Label() + " — " + Replay(base_seed));
        SimulatedChannel inner;
        ArmSchedule(inner, schedule);
        transport::ReliableChannel channel(inner, TestParams());
        auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->reconstructed, pair.f_new);
        // Invariant: the session drained its logical stream. Raw stale
        // duplicates may linger; LogicalPending is the exact check.
        EXPECT_FALSE(channel.LogicalPending(Direction::kClientToServer));
        EXPECT_FALSE(channel.LogicalPending(Direction::kServerToClient));
      }
    }
  }
}

TEST(Chaos, DeliveredStreamIsIndependentOfFaultSchedule) {
  const uint64_t base_seed = SeedFromEnv(1717);
  CorpusPair pair =
      MakeCorpusPair(CorpusShape::kDispersedEdits, base_seed ^ 0xD15EA5E);
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    SCOPED_TRACE(protocol.name + " — " + Replay(base_seed));
    // Reference: fault-free run over the same transport stack.
    SimulatedChannel clean_inner;
    transport::ReliableChannel clean(clean_inner, TestParams());
    clean.EnableTranscript();
    auto clean_r = protocol.run(pair.f_old, pair.f_new, clean, nullptr);
    ASSERT_TRUE(clean_r.ok()) << clean_r.status().ToString();

    FaultSchedule schedule;
    schedule.name = "mix";
    schedule.seed = base_seed ^ 0xFA57;
    for (int d = 0; d < 2; ++d) {
      schedule.drop[d] = 0.15;
      schedule.duplicate[d] = 0.10;
      schedule.reorder[d] = 0.10;
      schedule.corrupt[d] = 0.15;
    }
    SimulatedChannel faulty_inner;
    ArmSchedule(faulty_inner, schedule);
    transport::ReliableChannel faulty(faulty_inner, TestParams());
    faulty.EnableTranscript();
    auto faulty_r = protocol.run(pair.f_old, pair.f_new, faulty, nullptr);
    ASSERT_TRUE(faulty_r.ok()) << faulty_r.status().ToString();

    EXPECT_EQ(faulty_r->reconstructed, clean_r->reconstructed);
    // Logical determinism: both what the endpoints sent and what the
    // transport delivered are bit-identical to the fault-free run.
    const auto& sent_a = clean.transcript();
    const auto& sent_b = faulty.transcript();
    ASSERT_EQ(sent_a.size(), sent_b.size());
    for (size_t i = 0; i < sent_a.size(); ++i) {
      ASSERT_EQ(sent_a[i].dir, sent_b[i].dir) << "message " << i;
      ASSERT_EQ(sent_a[i].payload, sent_b[i].payload) << "message " << i;
    }
    const auto& got_a = clean.delivered_transcript();
    const auto& got_b = faulty.delivered_transcript();
    ASSERT_EQ(got_a.size(), got_b.size());
    for (size_t i = 0; i < got_a.size(); ++i) {
      ASSERT_EQ(got_a[i].dir, got_b[i].dir) << "message " << i;
      ASSERT_EQ(got_a[i].payload, got_b[i].payload) << "message " << i;
    }
    // Faults cost extra wire bytes, never fewer.
    EXPECT_GE(faulty.stats().total_bytes(), clean.stats().total_bytes());
  }
}

TEST(Chaos, PeerGoneSurfacesBoundedUnavailable) {
  const uint64_t base_seed = SeedFromEnv(31);
  FaultSchedule dead;
  dead.name = "peer-gone";
  dead.seed = base_seed;
  dead.drop[0] = dead.drop[1] = 1.0;
  for (const ProtocolEntry& protocol : ConformanceProtocols()) {
    SCOPED_TRACE(protocol.name);
    CorpusPair pair =
        MakeCorpusPair(CorpusShape::kClusteredEdits, base_seed ^ 0xDEAD);
    SimulatedChannel inner;
    ArmSchedule(inner, dead);
    transport::ReliableParams params = TestParams();
    params.max_attempts = 3;
    transport::ReliableChannel channel(inner, params);
    auto r = protocol.run(pair.f_old, pair.f_new, channel, nullptr);
    ASSERT_FALSE(r.ok()) << "completed against a dead peer";
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    EXPECT_LE(channel.counters().timeouts,
              static_cast<uint64_t>(params.max_attempts));
  }
}

TEST(Chaos, PhaseSumsStayTruthfulUnderFaults) {
  const uint64_t base_seed = SeedFromEnv(88);
  CorpusPair pair =
      MakeCorpusPair(CorpusShape::kClusteredEdits, base_seed ^ 0x0B5);
  FaultSchedule schedule;
  schedule.name = "mix";
  schedule.seed = base_seed ^ 0x0B5E;
  for (int d = 0; d < 2; ++d) {
    schedule.drop[d] = 0.10;
    schedule.corrupt[d] = 0.10;
  }
  SimulatedChannel inner;
  ArmSchedule(inner, schedule);
  transport::ReliableChannel channel(inner, TestParams());
  obs::SyncObserver obs;
  SyncConfig config;
  auto r = SynchronizeFile(pair.f_old, pair.f_new, config, channel, &obs);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " — " << Replay(base_seed);
  EXPECT_EQ(r->reconstructed, pair.f_new);
  // Invariant 6 under faults: per-phase sums equal the wire truth, with
  // reliability costs visible in the transport phase and event counters
  // agreeing with the channel's own counts.
  EXPECT_EQ(obs.total_bytes(), channel.stats().total_bytes());
  EXPECT_GT(obs.phase_bytes(obs::Phase::kTransport), 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kRetransmit),
            channel.counters().retransmits);
  EXPECT_EQ(obs.event_count(obs::Event::kCorruptRecord),
            channel.counters().corrupt_dropped);
  EXPECT_EQ(obs.event_count(obs::Event::kTimeout),
            channel.counters().timeouts);
}

}  // namespace
}  // namespace fsx
