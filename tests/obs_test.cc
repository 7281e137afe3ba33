// Unit tests for the observability layer (fsync/obs): metrics
// primitives, the JSON emitter, the SyncObserver byte matrix, and the
// central host-side-only guarantee — attaching an observer (with or
// without a trace sink) never changes a single wire byte or roundtrip of
// any protocol. docs/PROTOCOL.md cites that pin.
#include <gtest/gtest.h>

#include <string>

#include "fsync/core/protocol.h"
#include "fsync/obs/json.h"
#include "fsync/obs/metrics.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/obs/trace.h"
#include "fsync/testing/corpus.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

using obs::Flow;
using obs::Phase;

TEST(Counter, AddAndIncrement) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, TracksExactMoments) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.Record(0);
  h.Record(1);
  h.Record(7);
  h.Record(1024);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1032u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 258.0);
}

TEST(Histogram, PowerOfTwoBucketing) {
  obs::Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // [1, 2)     -> bucket 1
  h.Record(2);     // [2, 4)     -> bucket 2
  h.Record(3);     // [2, 4)     -> bucket 2
  h.Record(4);     // [4, 8)     -> bucket 3
  h.Record(1023);  // [512,1024) -> bucket 10
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(Histogram, MergeAddsEveryObservation) {
  obs::Histogram a;
  obs::Histogram b;
  a.Record(2);
  a.Record(100);
  b.Record(1);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 2u + 100u + 1u + 1000000u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000000u);
  // Merging an empty histogram changes nothing.
  obs::Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Histogram, PercentileUpperBoundBracketsTheRank) {
  obs::Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  // p0 and p100 are exact (clamped to min/max).
  EXPECT_EQ(h.PercentileUpperBound(0.0), 1u);
  EXPECT_EQ(h.PercentileUpperBound(1.0), 100u);
  // The median of 1..100 lies in [33, 64]; the upper bound reported is
  // the bucket edge 63 (bucket [32, 64) holds ranks 32..63).
  uint64_t p50 = h.PercentileUpperBound(0.5);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 100u);
}

TEST(MetricsRegistry, InstrumentsAreStableAndOrdered) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("b.count");
  c.Add(3);
  reg.counter("a.count").Add(1);
  reg.histogram("lat").Record(10);
  EXPECT_EQ(reg.counter("b.count").value(), 3u);  // same instrument
  EXPECT_EQ(reg.counters().begin()->first, "a.count");
  EXPECT_EQ(reg.histograms().at("lat").count(), 1u);
}

TEST(ScopedTimer, RecordsIntoSinkAndNoopsOnNull) {
  obs::Histogram h;
  {
    obs::ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  {
    obs::ScopedTimer t(nullptr);
    EXPECT_EQ(t.ElapsedNs(), 0u);
  }  // must not crash
}

TEST(JsonWriter, NestedStructuresAndEscaping) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\n\t");
  w.Key("n");
  w.Uint(18446744073709551615ull);
  w.Key("i");
  w.Int(-7);
  w.Key("d");
  w.Double(0.5);
  w.Key("b");
  w.Bool(true);
  w.Key("z");
  w.Null();
  w.Key("arr");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.Take(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"n\":18446744073709551615,"
            "\"i\":-7,\"d\":0.5,\"b\":true,\"z\":null,"
            "\"arr\":[1,2,{}]}");
}

TEST(SyncObserver, AccumulatesPerPhaseAndDirection) {
  obs::SyncObserver o;
  o.set_phase(Phase::kHandshake);
  o.OnWireMessage(Flow::kUp, 10);
  o.set_phase(Phase::kCandidates);
  o.OnWireMessage(Flow::kDown, 100);
  o.OnWireMessage(Flow::kDown, 1);
  o.AddBytes(Phase::kHandshake, Flow::kUp, 16);

  EXPECT_EQ(o.phase_bytes(Phase::kHandshake, Flow::kUp), 26u);
  EXPECT_EQ(o.phase_bytes(Phase::kCandidates, Flow::kDown), 101u);
  EXPECT_EQ(o.phase_bytes(Phase::kCandidates), 101u);
  EXPECT_EQ(o.dir_bytes(Flow::kUp), 26u);
  EXPECT_EQ(o.dir_bytes(Flow::kDown), 101u);
  EXPECT_EQ(o.total_bytes(), 127u);
  // Only wire messages feed the message-size histogram.
  EXPECT_EQ(o.message_bytes().count(), 3u);
}

TEST(SyncObserver, ReattributeClampsAndPreservesTotals) {
  obs::SyncObserver o;
  o.set_phase(Phase::kCandidates);
  o.OnWireMessage(Flow::kDown, 100);
  // Ask to move more than the phase holds: clamped to 100.
  o.Reattribute(Phase::kCandidates, Phase::kDelta, Flow::kDown, 250);
  EXPECT_EQ(o.phase_bytes(Phase::kCandidates, Flow::kDown), 0u);
  EXPECT_EQ(o.phase_bytes(Phase::kDelta, Flow::kDown), 100u);
  EXPECT_EQ(o.total_bytes(), 100u);
}

TEST(SyncObserver, TraceSinkSeesMessagesRoundsAndSession) {
  obs::VectorTraceSink sink;
  obs::SyncObserver o;
  o.set_protocol("test-proto");
  o.set_sink(&sink);
  o.set_round(3);
  o.set_phase(Phase::kVerification);
  o.OnWireMessage(Flow::kUp, 42);
  o.RecordRound(3, 1000);
  o.RecordSession(5000);

  ASSERT_EQ(sink.events().size(), 3u);
  const obs::TraceEvent& msg = sink.events()[0];
  EXPECT_EQ(msg.kind, obs::EventKind::kMessage);
  EXPECT_STREQ(msg.protocol, "test-proto");
  EXPECT_EQ(msg.round, 3u);
  EXPECT_EQ(msg.phase, Phase::kVerification);
  EXPECT_EQ(msg.dir, Flow::kUp);
  EXPECT_EQ(msg.bytes, 42u);
  const obs::TraceEvent& round = sink.events()[1];
  EXPECT_EQ(round.kind, obs::EventKind::kRound);
  EXPECT_EQ(round.wall_ns, 1000u);
  const obs::TraceEvent& session = sink.events()[2];
  EXPECT_EQ(session.kind, obs::EventKind::kSession);
  EXPECT_EQ(session.bytes, 42u);
  EXPECT_EQ(session.wall_ns, 5000u);
}

TEST(SyncObserver, NullSafeHelpersAreNoops) {
  obs::SetPhase(nullptr, Phase::kDelta);
  obs::SetRound(nullptr, 9);
  obs::AddBytes(nullptr, Phase::kDelta, Flow::kUp, 1);
  obs::Reattribute(nullptr, Phase::kDelta, Phase::kLiterals, Flow::kUp, 1);
  obs::RecordRound(nullptr, 1, 1);  // must not crash
}

TEST(SyncObserver, FlushToNamesRegistryInstruments) {
  obs::SyncObserver o;
  o.set_phase(Phase::kCandidates);
  o.OnWireMessage(Flow::kDown, 64);
  o.RecordRound(1, 123);
  obs::MetricsRegistry reg;
  o.FlushTo(reg, "session");
  EXPECT_EQ(reg.counters().at("session.bytes.candidates.down").value(), 64u);
  EXPECT_EQ(reg.counters().at("session.rounds").value(), 1u);
  EXPECT_EQ(reg.histograms().at("session.round_ns").count(), 1u);
  EXPECT_EQ(reg.histograms().at("session.message_bytes").count(), 1u);
  // Zero phases are not emitted.
  EXPECT_EQ(reg.counters().count("session.bytes.fallback.up"), 0u);
}

TEST(JsonHelpers, WritePhaseBytesEmitsNonzeroPhases) {
  obs::SyncObserver o;
  o.set_phase(Phase::kLiterals);
  o.OnWireMessage(Flow::kDown, 7);
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("phases");
  obs::WritePhaseBytes(w, o);
  w.EndObject();
  std::string out = w.Take();
  EXPECT_NE(out.find("\"literals\":{\"up\":0,\"down\":7}"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("handshake"), std::string::npos) << out;
}

TEST(JsonHelpers, WriteMetricsEmitsCountersAndHistogramSummaries) {
  obs::MetricsRegistry reg;
  reg.counter("files").Add(3);
  reg.histogram("bytes").Record(8);
  obs::JsonWriter w;
  obs::WriteMetrics(w, reg);
  std::string out = w.Take();
  EXPECT_NE(out.find("\"files\":3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"count\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"p99\""), std::string::npos) << out;
}

// The load-bearing guarantee the docs promise: observation is host-side
// only. For every registered protocol, a run with an observer (and a
// recording trace sink) produces byte-for-byte the same wire traffic,
// roundtrip count, and reconstruction as a run without one.
TEST(ZeroWireImpact, ObserverNeverChangesTrafficOrResult) {
  const uint64_t seed = SeedFromEnv(21);
  for (CorpusShape shape :
       {CorpusShape::kClusteredEdits, CorpusShape::kIdentical,
        CorpusShape::kEmptyOld}) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    for (const ProtocolEntry& protocol : ConformanceProtocols()) {
      SimulatedChannel bare_channel;
      auto bare = protocol.run(pair.f_old, pair.f_new, bare_channel, nullptr);
      ASSERT_TRUE(bare.ok()) << protocol.name << " on " << pair.Label();

      obs::VectorTraceSink sink;
      obs::SyncObserver observer;
      observer.set_sink(&sink);
      SimulatedChannel observed_channel;
      auto observed = protocol.run(pair.f_old, pair.f_new, observed_channel,
                                   &observer);
      ASSERT_TRUE(observed.ok()) << protocol.name << " on " << pair.Label();

      const TrafficStats& a = bare_channel.stats();
      const TrafficStats& b = observed_channel.stats();
      EXPECT_EQ(a.client_to_server_bytes, b.client_to_server_bytes)
          << protocol.name << " on " << pair.Label();
      EXPECT_EQ(a.server_to_client_bytes, b.server_to_client_bytes)
          << protocol.name << " on " << pair.Label();
      EXPECT_EQ(a.roundtrips, b.roundtrips)
          << protocol.name << " on " << pair.Label();
      EXPECT_EQ(bare->reconstructed, observed->reconstructed)
          << protocol.name << " on " << pair.Label();
      // And the observer's books balance against the channel.
      EXPECT_EQ(observer.total_bytes(), b.total_bytes())
          << protocol.name << " on " << pair.Label();
      EXPECT_FALSE(sink.events().empty()) << protocol.name;
    }
  }
}

}  // namespace
}  // namespace fsx
