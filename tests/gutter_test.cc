// Tests for gutter-buffered ingestion (src/driver/gutter.h) and the
// ingest-path bugfixes that rode along with it. Registry families ingest
// through a SessionManager session; concrete sketches and the fake
// min-endpoint Alg attach an AlgIngestSink to an IngestPipeline directly.
//
// The load-bearing property is BYTE parity: gutters reorder and coalesce
// updates and flush them through the ApplyBatch fast path, and because
// the sketches are linear measurements none of that may change a single
// sketch byte. The parity tests assert serialization equality against
// plain sequential ingestion for every registered algorithm family.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/connectivity_suite.h"
#include "src/core/sketch_registry.h"
#include "src/core/spanning_forest.h"
#include "src/driver/binary_stream.h"
#include "src/driver/checkpoint.h"
#include "src/driver/gutter.h"
#include "src/driver/ingest_pipeline.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"
#include "src/session/session_manager.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 16;
constexpr uint64_t kSeed = 9;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// A stream with deletions, shuffled into adversarial order.
DynamicGraphStream TestStream(uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(kN, 0.35, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 3 + 4, &rng).Shuffled(&rng);
}

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

// A fresh registry-family session over the stream-test graph shape.
SketchSession* OpenSession(SessionManager* mgr, const AlgInfo& info,
                           size_t gutter_bytes) {
  SessionConfig cfg;
  cfg.num_nodes = kN;
  cfg.seed = kSeed;
  cfg.gutter_bytes = gutter_bytes;
  std::string error;
  SketchSession* s = mgr->Create(info.name, info.name, cfg, &error);
  EXPECT_NE(s, nullptr) << error;
  return s;
}

void PushAll(SketchSession* session, const DynamicGraphStream& s) {
  for (const auto& e : s.Updates()) session->Push(e.u, e.v, e.delta);
}

// ------------------------------------------------- GutterSystem unit --

TEST(GutterSystem, FlushesAtCapacityAndCoalescesDuplicates) {
  std::vector<NodeBatch> batches;
  GutterOptions opt;
  opt.bytes_per_gutter = 4 * kGutterEntryBytes;  // 4 entries per gutter
  GutterSystem gutter(opt, [&](NodeBatch&& b) {
    batches.push_back(std::move(b));
  });
  ASSERT_EQ(gutter.entries_per_gutter(), 4u);

  // Three half-updates for the same edge fold into ONE entry.
  gutter.BufferHalf(0, 5, +1);
  gutter.BufferHalf(0, 5, +1);
  gutter.BufferHalf(0, 5, -1);
  EXPECT_EQ(gutter.coalesced_halves(), 2u);
  EXPECT_EQ(gutter.buffered_halves(), 3u);
  EXPECT_TRUE(batches.empty());

  // Three more distinct entries hit the 4-entry capacity: one flush.
  gutter.BufferHalf(0, 6, +1);
  gutter.BufferHalf(0, 7, +1);
  gutter.BufferHalf(0, 8, +1);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].endpoint, 0u);
  EXPECT_EQ(batches[0].others, (std::vector<NodeId>{5, 6, 7, 8}));
  EXPECT_EQ(batches[0].deltas, (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(batches[0].halves, 6u);  // raw halves, coalescing included
  EXPECT_EQ(gutter.buffered_halves(), 0u);

  // Partial gutters for other nodes flush only on FlushAll.
  gutter.BufferHalf(3, 1, +1);
  gutter.BufferHalf(9, 2, -1);
  EXPECT_EQ(batches.size(), 1u);
  gutter.FlushAll();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(gutter.buffered_halves(), 0u);
  EXPECT_EQ(gutter.flushes(), 3u);
}

// opt.coalesce = false buffers every token verbatim — the mode the driver
// selects for sketches that are not linear in delta (see
// LinearSketch::CoalesceSafe), where folding +1, +1 into +2 would change
// which cells the tokens reach.
TEST(GutterSystem, CoalesceOffBuffersEveryTokenVerbatim) {
  std::vector<NodeBatch> batches;
  GutterOptions opt;
  opt.bytes_per_gutter = 4 * kGutterEntryBytes;
  opt.coalesce = false;
  GutterSystem gutter(opt, [&](NodeBatch&& b) {
    batches.push_back(std::move(b));
  });

  // Same-edge tokens stay separate entries and fill the gutter.
  gutter.BufferHalf(0, 5, +1);
  gutter.BufferHalf(0, 5, +1);
  gutter.BufferHalf(0, 5, -1);
  gutter.BufferHalf(0, 5, +2);
  EXPECT_EQ(gutter.coalesced_halves(), 0u);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].others, (std::vector<NodeId>{5, 5, 5, 5}));
  EXPECT_EQ(batches[0].deltas, (std::vector<int64_t>{1, 1, -1, 2}));
  EXPECT_EQ(batches[0].halves, 4u);
}

TEST(GutterSystem, GlobalCapBoundsBufferedBytes) {
  std::vector<NodeBatch> batches;
  GutterOptions opt;
  opt.bytes_per_gutter = 64 * kGutterEntryBytes;
  opt.max_total_bytes = 16 * kGutterEntryBytes;  // clamps to 2 gutters
  GutterSystem gutter(opt, [&](NodeBatch&& b) {
    batches.push_back(std::move(b));
  });
  // Spray entries across many nodes; no single gutter ever fills, so only
  // the global cap can keep memory bounded.
  const size_t cap_entries = 2 * 64;  // clamped to 2 * bytes_per_gutter
  for (NodeId v = 1; v <= 200; ++v) {
    gutter.BufferHalf(0, v, +1);
    gutter.BufferHalf(v, 0, +1);
    EXPECT_LE(gutter.buffered_halves(), cap_entries + 1);
  }
  EXPECT_GT(batches.size(), 0u);  // the sweep flushed under pressure
  gutter.FlushAll();
  uint64_t delivered = 0;
  for (const auto& b : batches) delivered += b.halves;
  EXPECT_EQ(delivered, 400u);  // every half exactly once
}

// --------------------------------------------------- parity per family --

// Gutter-buffered ingestion must be byte-identical to plain sequential
// ingestion for every registered family, at several gutter sizes (a tiny
// gutter forces many small flushes, a large one a single drain flush) and
// at multiple worker counts for the endpoint-sharded families.
TEST(GutterParity, EveryRegisteredFamilyAtSeveralGutterSizes) {
  DynamicGraphStream s = TestStream(5);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sequential = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      sequential->Update(u, v, d);
    });
    const std::string expected = Bytes(*sequential);

    for (size_t gutter_bytes : {size_t{64}, size_t{4096}}) {
      for (uint32_t threads : {1u, 3u}) {
        if (threads > 1 && !info.endpoint_sharded) continue;
        SessionManager mgr(PipelineOptions{threads});
        SketchSession* session = OpenSession(&mgr, info, gutter_bytes);
        ASSERT_NE(session, nullptr);
        PushAll(session, s);
        session->Drain();
        EXPECT_EQ(session->applied_halves(), 2 * s.Size());
        EXPECT_EQ(Bytes(session->sketch()), expected)
            << "gutter=" << gutter_bytes << "B, threads=" << threads;
      }
    }
  }
}

// ---------------------------------------- min-endpoint gutter audit --
//
// SubgraphSketch (triangles) is not endpoint-sharded: its UpdateEndpoint
// applies the WHOLE token when endpoint == min(u, v) and is a no-op for
// the other half. Gutters buffer both halves in different per-node
// gutters and may coalesce each side differently (coalescing only folds
// into the newest entry), so the audit below checks the routing invariant
// directly: across all flushed batches, the min-endpoint halves of each
// edge carry exactly the edge's delta sum, and the max-endpoint halves
// apply nothing — each token lands exactly once, never once per half.
//
// Mimics the gutter-flush shape of SubgraphSketch exactly: min-endpoint
// semantics, no ApplyBatch override (the sink falls back to the
// per-update UpdateEndpoint loop, like LinearSketch's default), and not
// endpoint-sharded (every half writes the one shared map, so the
// pipeline must keep its batches to one applier at a time).
struct MinEndpointRecorder {
  std::map<std::pair<NodeId, NodeId>, int64_t> applied;
  uint64_t noop_halves = 0;

  bool EndpointSharded() const { return false; }

  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta) {
    if (endpoint == (u < v ? u : v)) {
      applied[{std::min(u, v), std::max(u, v)}] += delta;
    } else {
      ++noop_halves;
    }
  }
};

TEST(GutterMinEndpoint, EachEdgeAppliedExactlyOnceUnderCoalescing) {
  // Hot-spot multigraph stream with long same-edge runs and deletions:
  // the shape where per-gutter coalescing diverges most between the two
  // endpoint gutters.
  DynamicGraphStream s(kN);
  for (int r = 0; r < 50; ++r) s.Push(2, 7, +1);
  for (NodeId v = 1; v < kN; ++v) {
    s.Push(0, v, +1);
    s.Push(0, v, +1);
    s.Push(v, 0, -1);  // reversed endpoint order, same edge
  }
  for (int r = 0; r < 20; ++r) s.Push(7, 2, -1);  // reversed hot edge

  std::map<std::pair<NodeId, NodeId>, int64_t> expected;
  for (const auto& e : s.Updates()) {
    expected[{std::min(e.u, e.v), std::max(e.u, e.v)}] += e.delta;
  }

  for (size_t gutter_bytes : {size_t{64}, size_t{4096}}) {
    MinEndpointRecorder rec;
    AlgIngestSink<MinEndpointRecorder> sink(&rec);
    {
      // One worker: min-endpoint algs are not endpoint-sharded.
      IngestPipeline pipeline(PipelineOptions{1});
      auto sid = pipeline.Attach(&sink, ChannelOptions{gutter_bytes});
      for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);
      pipeline.Drain(sid);
      ASSERT_NE(pipeline.gutters(sid), nullptr);
      EXPECT_GT(pipeline.gutters(sid)->coalesced_halves(), 0u);
    }
    EXPECT_EQ(rec.applied, expected) << "gutter=" << gutter_bytes;
    // Every non-min half was a no-op; with coalescing there are at most
    // as many of them as raw halves pushed.
    EXPECT_GT(rec.noop_halves, 0u);
    EXPECT_LE(rec.noop_halves, s.Size());
  }
}

TEST(GutterMinEndpoint, TrianglesParityUnderCoalescingHeavyStream) {
  // The registry triangles family (SubgraphSketch through the default
  // ApplyBatch fallback) on the same coalescing-heavy shape: gutter-on
  // ingestion must be byte-identical to plain sequential ingestion at
  // both a tiny and a production gutter size.
  DynamicGraphStream s(kN);
  for (int r = 0; r < 30; ++r) s.Push(1, 2, +1);
  for (NodeId v = 2; v < 10; ++v) {
    s.Push(0, v, +1);
    s.Push(v, 0, +1);
    s.Push(0, v, -1);
  }
  s.Push(1, 3, +1);
  s.Push(2, 3, +1);  // closes a triangle {1,2,3}

  const AlgInfo* info = FindAlg("triangles");
  ASSERT_NE(info, nullptr);
  ASSERT_FALSE(info->endpoint_sharded);
  auto sequential = info->make(kN, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });
  const std::string expected = Bytes(*sequential);

  for (size_t gutter_bytes : {size_t{64}, size_t{4096}}) {
    SessionManager mgr;  // one worker
    SketchSession* session = OpenSession(&mgr, *info, gutter_bytes);
    ASSERT_NE(session, nullptr);
    PushAll(session, s);
    session->Drain();
    ASSERT_NE(session->gutters(), nullptr);
    EXPECT_GT(session->gutters()->coalesced_halves(), 0u);
    EXPECT_EQ(session->applied_halves(), 2 * s.Size());
    EXPECT_EQ(Bytes(session->sketch()), expected) << "gutter=" << gutter_bytes;
  }
}

TEST(GutterParity, InsertDeleteCancellationInsideOneGutter) {
  // Every spoke edge is inserted and deleted back-to-back, so per-gutter
  // coalescing folds the pair into a single ZERO-delta entry before any
  // flush happens (the gutter is larger than the whole stream — nothing
  // flushes until Drain). The flushed batches therefore carry delta-0
  // entries, and applying them must be a no-op for every family: byte
  // parity against plain sequential ingestion of the same stream.
  DynamicGraphStream s(kN);
  for (NodeId v = 1; v < kN; ++v) {
    s.Push(0, v, +1);
    s.Push(0, v, -1);  // cancels inside the same gutter entry
  }
  // A multi-copy cancellation (|delta| > 1) through the same fold.
  s.Push(3, 4, +2);
  s.Push(3, 4, -2);
  // A few surviving edges so the final sketch is not the empty graph and
  // a wrong zero-handling would visibly corrupt decoded state.
  s.Push(1, 2, +1);
  s.Push(2, 5, +1);
  s.Push(5, 6, +1);

  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sequential = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      sequential->Update(u, v, d);
    });
    const std::string expected = Bytes(*sequential);

    for (uint32_t threads : {1u, 2u}) {
      if (threads > 1 && !info.endpoint_sharded) continue;
      SessionManager mgr(PipelineOptions{threads});
      // Whole stream fits in the gutters: drain-only flush.
      SketchSession* session = OpenSession(&mgr, info, 1 << 20);
      ASSERT_NE(session, nullptr);
      PushAll(session, s);
      session->Drain();
      ASSERT_NE(session->gutters(), nullptr);
      // The cancelled pairs really did coalesce before flushing.
      EXPECT_GE(session->gutters()->coalesced_halves(), 2u * (kN - 1));
      EXPECT_EQ(Bytes(session->sketch()), expected) << "threads=" << threads;
    }
  }
}

TEST(GutterParity, GlobalCapSweepKeepsParity) {
  DynamicGraphStream s = TestStream(11);
  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch capped(kN, ForestOptions{}, kSeed);
  AlgIngestSink<ConnectivitySketch> sink(&capped);
  ChannelOptions copt;
  copt.gutter_bytes = 1024;
  copt.gutter_total_bytes = 4 * kGutterEntryBytes;  // constant eviction
  {
    IngestPipeline pipeline(PipelineOptions{2});
    auto sid = pipeline.Attach(&sink, copt);
    for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);
    pipeline.Drain(sid);
    ASSERT_NE(pipeline.gutters(sid), nullptr);
    EXPECT_EQ(pipeline.AppliedHalves(sid), 2 * s.Size());
  }
  std::string a, b;
  sequential.AppendTo(&a);
  capped.AppendTo(&b);
  EXPECT_EQ(a, b);
}

// ----------------------------------------------- pipeline lifecycle --

TEST(GutterDriver, FlushOnDrainDeliversBufferedUpdates) {
  // A gutter far larger than the stream: nothing flushes during Push, so
  // every update must reach the sketch via Drain's FlushAll.
  DynamicGraphStream s = TestStream(7);
  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch buffered(kN, ForestOptions{}, kSeed);
  AlgIngestSink<ConnectivitySketch> sink(&buffered);
  IngestPipeline pipeline(PipelineOptions{2});
  auto sid = pipeline.Attach(&sink, ChannelOptions{1 << 20});
  for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);
  // Everything is still sitting in gutters: nothing was dispatched.
  EXPECT_EQ(pipeline.AppliedHalves(sid), 0u);
  ASSERT_NE(pipeline.gutters(sid), nullptr);
  EXPECT_EQ(pipeline.gutters(sid)->buffered_halves(), 2 * s.Size());

  pipeline.Drain(sid);
  EXPECT_EQ(pipeline.AppliedHalves(sid), 2 * s.Size());
  EXPECT_EQ(pipeline.gutters(sid)->buffered_halves(), 0u);
  std::string a, b;
  sequential.AppendTo(&a);
  buffered.AppendTo(&b);
  EXPECT_EQ(a, b);
}

TEST(GutterDriver, DestructionWithoutDrainFlushesGutters) {
  DynamicGraphStream s = TestStream(13);
  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch abandoned(kN, ForestOptions{}, kSeed);
  AlgIngestSink<ConnectivitySketch> sink(&abandoned);
  {
    IngestPipeline pipeline(PipelineOptions{3});
    // Nothing flushes before destruction.
    auto sid = pipeline.Attach(&sink, ChannelOptions{1 << 20});
    for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);
  }
  std::string a, b;
  sequential.AppendTo(&a);
  abandoned.AppendTo(&b);
  EXPECT_EQ(a, b);
}

TEST(GutterDriver, HotSpotSingleNodeStreamCoalesces) {
  // Every token touches node 0 (a star with multigraph repetition), so
  // one gutter absorbs half the update volume and long same-edge runs
  // exercise the coalescing path.
  constexpr size_t kRepeats = 200;
  DynamicGraphStream s(kN);
  for (size_t r = 0; r < kRepeats; ++r) {
    s.Push(0, 1, +1);  // hot edge, coalesces
  }
  for (NodeId v = 1; v < kN; ++v) {
    s.Push(0, v, +1);
    s.Push(0, v, +1);
    s.Push(0, v, -1);
  }

  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch hot(kN, ForestOptions{}, kSeed);
  AlgIngestSink<ConnectivitySketch> sink(&hot);
  {
    IngestPipeline pipeline(PipelineOptions{2});
    auto sid = pipeline.Attach(&sink, ChannelOptions{64 * kGutterEntryBytes});
    for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);
    pipeline.Drain(sid);
    EXPECT_EQ(pipeline.AppliedHalves(sid), 2 * s.Size());  // raw halves
    ASSERT_NE(pipeline.gutters(sid), nullptr);
    EXPECT_GT(pipeline.gutters(sid)->coalesced_halves(), kRepeats);
  }
  std::string a, b;
  sequential.AppendTo(&a);
  hot.AppendTo(&b);
  EXPECT_EQ(a, b);
}

TEST(GutterDriver, CheckpointResumeEquivalence) {
  // Gutter ingestion of a prefix, checkpoint, restore, gutter ingestion
  // of the suffix == one uninterrupted sequential run, byte for byte.
  DynamicGraphStream s = TestStream(17);
  ASSERT_GT(s.Size(), 8u);
  const uint64_t cut = s.Size() / 2;
  const std::string ckpt_path = TempPath("gutter_resume.gskc");

  auto uninterrupted = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    uninterrupted->Update(u, v, d);
  });

  SessionManager mgr(PipelineOptions{2});
  std::string error;
  {
    SketchSession* prefix =
        OpenSession(&mgr, *FindAlg("connectivity"), /*gutter_bytes=*/128);
    ASSERT_NE(prefix, nullptr);
    for (uint64_t i = 0; i < cut; ++i) {
      prefix->Push(s.Updates()[i].u, s.Updates()[i].v, s.Updates()[i].delta);
    }
    ASSERT_TRUE(mgr.Checkpoint(prefix->name(), ckpt_path, &error)) << error;
  }

  SessionConfig cfg;
  cfg.gutter_bytes = 128;
  SketchSession* resumed =
      mgr.OpenCheckpoint("resumed", ckpt_path, cfg, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->stream_pos(), cut);
  for (uint64_t i = cut; i < s.Size(); ++i) {
    resumed->Push(s.Updates()[i].u, s.Updates()[i].v, s.Updates()[i].delta);
  }
  resumed->Drain();
  EXPECT_EQ(Bytes(resumed->sketch()), Bytes(*uninterrupted));
  std::remove(ckpt_path.c_str());
}

// ------------------------------------------- int64 delta unification --

TEST(DriverDeltaWidth, AccumulatedDeltasBeyondInt32Survive) {
  // The in-memory pipeline is int64 end to end: repeated pushes whose
  // per-edge aggregate exceeds 2^31 must decode exactly. (The GSKB wire
  // format stays int32 per record — this exercises the in-memory path.)
  constexpr NodeId n = 4;
  constexpr int64_t kBig = int64_t{1} << 30;
  SpanningForestSketch sequential(n, ForestOptions{}, kSeed);
  for (int i = 0; i < 6; ++i) sequential.Update(0, 1, kBig);
  sequential.Update(1, 2, kBig);      // single push beyond int32 range
  sequential.Update(2, 3, 5 * kBig);  // aggregate 5 * 2^30 > 2^32

  for (uint32_t gutter : {0u, 64u}) {
    SpanningForestSketch fresh(n, ForestOptions{}, kSeed);
    AlgIngestSink<SpanningForestSketch> sink(&fresh);
    IngestPipeline pipeline(PipelineOptions{2});
    auto sid = pipeline.Attach(&sink, ChannelOptions{gutter});
    for (int i = 0; i < 6; ++i) pipeline.Push(sid, 0, 1, kBig);
    pipeline.Push(sid, 1, 2, kBig);
    pipeline.Push(sid, 2, 3, 5 * kBig);
    pipeline.Drain(sid);
    std::string a, b;
    sequential.AppendTo(&a);
    fresh.AppendTo(&b);
    EXPECT_EQ(a, b) << "gutter=" << gutter;

    // The decoded forest carries the exact aggregate as edge weight —
    // 6 * 2^30 > 2^31 proves no int32 truncation anywhere in the pipeline.
    Graph forest = fresh.ExtractForest();
    double max_weight = 0;
    for (const auto& e : forest.Edges()) {
      if (e.weight > max_weight) max_weight = e.weight;
    }
    EXPECT_EQ(max_weight, static_cast<double>(6 * kBig))
        << "gutter=" << gutter;
  }
}

// --------------------------------------- ProcessFile error surfacing --

// Reads `reader` to the end the way every GSKB ingest loop does (the CLI,
// bench_ingest_driver); false with `*error` set to the reader's
// diagnostic when the stream is malformed or ends early.
bool ReadToEnd(BinaryStreamReader* reader, std::string* error) {
  std::vector<EdgeUpdate> batch;
  while (!reader->Done() && reader->ok()) {
    batch.clear();
    if (reader->ReadBatch(4096, &batch) == 0) break;
  }
  if (reader->ok() && reader->Done()) return true;
  *error = reader->error();
  return false;
}

TEST(ProcessFileErrors, TruncatedFileReportsReaderDiagnostic) {
  DynamicGraphStream s = TestStream(23);
  std::string path = TempPath("gutter_truncated.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));
  ASSERT_EQ(truncate(path.c_str(), 20 + 12 * (s.Size() / 2) + 5), 0);

  BinaryStreamReader reader(path);
  std::string error;
  EXPECT_FALSE(ReadToEnd(&reader, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("bytes"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ProcessFileErrors, CorruptRecordMidStreamReportsPosition) {
  // Size-consistent file whose 4th record has u == v: the header passes,
  // so the failure surfaces mid-read — exactly the case that used to come
  // back as a bare `false`.
  DynamicGraphStream s = TestStream(29);
  ASSERT_GT(s.Size(), 8u);
  std::string path = TempPath("gutter_badrecord.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20 + 12 * 3, SEEK_SET);  // record 3: u := v
    unsigned char rec[8];
    ASSERT_EQ(std::fread(rec, 1, 8, f), 8u);
    std::fseek(f, 20 + 12 * 3, SEEK_SET);
    ASSERT_EQ(std::fwrite(rec + 4, 1, 4, f), 4u);  // u <- v
    std::fclose(f);
  }

  BinaryStreamReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::string error;
  EXPECT_FALSE(ReadToEnd(&reader, &error));
  EXPECT_NE(error.find("bad record at update 3"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsketch
