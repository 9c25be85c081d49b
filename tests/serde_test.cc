// Tests for sketch serialization: round-trips, cross-site merge on
// deserialized sketches, and malformed-input rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "src/core/connectivity_suite.h"
#include "src/core/k_edge_connect.h"
#include "src/core/min_cut.h"
#include "src/core/node_sketch.h"
#include "src/core/simple_sparsifier.h"
#include "src/core/spanning_forest.h"
#include "src/core/subgraph_sketch.h"
#include "src/driver/checkpoint.h"
#include "src/graph/generators.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/serde.h"
#include "src/sketch/sparse_recovery.h"

namespace gsketch {
namespace {

TEST(Serde, ByteRoundTripPrimitives) {
  std::string buf;
  ByteWriter w(&buf);
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  ByteReader r(buf);
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64().value(), -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, ReaderFailsOnTruncation) {
  std::string buf;
  ByteWriter w(&buf);
  w.U32(7);
  ByteReader r(buf);
  EXPECT_TRUE(r.U32().has_value());
  EXPECT_FALSE(r.U64().has_value());
  EXPECT_TRUE(r.failed());
}

TEST(Serde, L0SamplerRoundTripDecodesIdentically) {
  L0Sampler s(1 << 16, 6, 42);
  for (uint64_t i = 0; i < 100; ++i) s.Update(i * 37, 1 + (i % 3));
  std::string buf;
  s.AppendTo(&buf);
  ByteReader r(buf);
  auto back = L0Sampler::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  auto a = s.Sample(), b = back->Sample();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->index, b->index);
  EXPECT_EQ(a->value, b->value);
}

TEST(Serde, L0SamplerCrossSiteMergeAfterShipping) {
  // Site A serializes; the coordinator deserializes and merges with its
  // own sketch; result equals a single-stream sketch.
  L0Sampler site_a(4096, 6, 7), coord(4096, 6, 7), whole(4096, 6, 7);
  for (uint64_t i = 0; i < 40; ++i) {
    site_a.Update(i, 1);
    whole.Update(i, 1);
  }
  for (uint64_t i = 40; i < 80; ++i) {
    coord.Update(i, 1);
    whole.Update(i, 1);
  }
  std::string wire;
  site_a.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = L0Sampler::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  coord.Merge(*shipped);
  auto a = coord.Sample(), b = whole.Sample();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->index, b->index);
}

TEST(Serde, L0SamplerRejectsGarbage) {
  std::string buf = "not a sketch at all, definitely";
  ByteReader r(buf);
  EXPECT_FALSE(L0Sampler::Deserialize(&r).has_value());
}

TEST(Serde, L0SamplerRejectsTruncated) {
  L0Sampler s(1024, 4, 9);
  s.Update(5, 1);
  std::string buf;
  s.AppendTo(&buf);
  buf.resize(buf.size() / 2);
  ByteReader r(buf);
  EXPECT_FALSE(L0Sampler::Deserialize(&r).has_value());
}

TEST(Serde, SparseRecoveryRoundTrip) {
  SparseRecovery s(1 << 14, 8, 3, 11);
  s.Update(100, 5);
  s.Update(2000, -3);
  std::string buf;
  s.AppendTo(&buf);
  ByteReader r(buf);
  auto back = SparseRecovery::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  auto da = s.Decode(), db = back->Decode();
  ASSERT_TRUE(da.ok);
  ASSERT_TRUE(db.ok);
  EXPECT_EQ(da.entries, db.entries);
}

TEST(Serde, SparseRecoverySubtractAfterShipping) {
  SparseRecovery a(4096, 8, 3, 13), b(4096, 8, 3, 13);
  a.Update(1, 1);
  a.Update(2, 2);
  b.Update(2, 2);
  std::string wire;
  b.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = SparseRecovery::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  a.Subtract(*shipped);
  auto d = a.Decode();
  ASSERT_TRUE(d.ok);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].first, 1u);
}

TEST(Serde, SpanningForestRoundTripSameForest) {
  Graph g = ErdosRenyi(24, 0.25, 3);
  ForestOptions opt;
  opt.repetitions = 5;
  SpanningForestSketch sk(24, opt, 17);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  std::string wire;
  sk.AppendTo(&wire);
  ByteReader r(wire);
  auto back = SpanningForestSketch::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  Graph fa = sk.ExtractForest(), fb = back->ExtractForest();
  EXPECT_EQ(fa.NumEdges(), fb.NumEdges());
  for (const auto& e : fa.Edges()) EXPECT_TRUE(fb.HasEdge(e.u, e.v));
}

TEST(Serde, ShippedForestSketchMergesWithLocal) {
  Graph g = ErdosRenyi(20, 0.3, 5);
  ForestOptions opt;
  opt.repetitions = 5;
  SpanningForestSketch site(20, opt, 19), coord(20, opt, 19),
      whole(20, opt, 19);
  size_t i = 0;
  for (const auto& e : g.Edges()) {
    ((i++ % 2 == 0) ? site : coord).Update(e.u, e.v, 1);
    whole.Update(e.u, e.v, 1);
  }
  std::string wire;
  site.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = SpanningForestSketch::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  coord.Merge(*shipped);
  EXPECT_EQ(coord.CountComponents(), whole.CountComponents());
}

// Headers claiming 2^32 - 1 layers over an 8-node graph, followed by no
// layer at all. Parsing must fail at the first missing layer instead of
// allocating for the claimed count.
constexpr uint32_t kHostileCount = 0xFFFFFFFFu;

std::string HostilePayload(std::initializer_list<uint32_t> words) {
  std::string buf;
  ByteWriter w(&buf);
  for (uint32_t word : words) w.U32(word);
  return buf;
}

TEST(Serde, KEdgeConnectRejectsHostileLayerCount) {
  const std::string buf = HostilePayload({0x4b454353u, 8, kHostileCount});
  ASSERT_EQ(buf.size(), 12u);
  ByteReader r(buf);
  EXPECT_FALSE(KEdgeConnectSketch::Deserialize(&r).has_value());
}

TEST(Serde, SpanningForestRejectsHostileRoundCount) {
  const std::string buf = HostilePayload({0x53464b53u, 8, kHostileCount});
  ASSERT_EQ(buf.size(), 12u);
  ByteReader r(buf);
  EXPECT_FALSE(SpanningForestSketch::Deserialize(&r).has_value());
}

TEST(Serde, LayeredSketchesRejectHostileCounts) {
  // min cut / sparsifier: magic, n, k, max_level, seed (U64), levels.
  for (uint32_t magic : {0x4d435554u, 0x53505346u}) {
    const std::string buf =
        HostilePayload({magic, 8, 3, 6, 1, 0, kHostileCount});
    ByteReader r(buf);
    const bool parsed = magic == 0x4d435554u
                            ? MinCutSketch::Deserialize(&r).has_value()
                            : SimpleSparsifier::Deserialize(&r).has_value();
    EXPECT_FALSE(parsed) << std::hex << magic;
  }
  {  // approximate MST: magic, n, thresholds/forests count.
    const std::string buf = HostilePayload({0x4d535457u, 8, kHostileCount});
    ByteReader r(buf);
    EXPECT_FALSE(ApproxMstSketch::Deserialize(&r).has_value());
  }
  {  // subgraph sketch: magic, n, order, sampler count.
    const std::string buf =
        HostilePayload({0x53554247u, 8, 3, kHostileCount});
    ByteReader r(buf);
    EXPECT_FALSE(SubgraphSketch::Deserialize(&r).has_value());
  }
}

TEST(Serde, L0SamplerRejectsHostileRepetitionCount) {
  // magic, domain (U64), repetitions, seed (U64): ~2^32 × 21 cells
  // declared, no cells present.
  const std::string buf =
      HostilePayload({0x4c30534bu, 1u << 20, 0, kHostileCount, 7, 0});
  ByteReader r(buf);
  EXPECT_FALSE(L0Sampler::Deserialize(&r).has_value());
}

// The resealed-corruption probe (tools/hostile_gskc_probe.py), in memory:
// overwrite 8 bytes with 0xff at each offset in the first 64 payload bytes
// of the golden connectivity checkpoint. Every copy must decode or be
// refused without throwing. The probe's 12 aborting seeds (seed, offset)
// declare node-bank sizes the payload cannot hold; the reader once
// allocated them and died of std::bad_alloc, and must now refuse them
// before any allocation.
TEST(Serde, ResealedGoldenCheckpointCorruptionsFailCleanly) {
  std::string error;
  auto golden = ReadCheckpointFile(
      std::string(GSKETCH_TEST_DATA_DIR) + "/golden_connectivity.gskc",
      &error);
  ASSERT_TRUE(golden.has_value()) << error;
  ASSERT_GE(golden->payload.size(), 64u);
  auto corrupt = [&](size_t offset) {
    Checkpoint c = *golden;
    c.payload.replace(offset, 8, 8, '\xff');
    return c;
  };
  for (size_t offset = 0; offset + 8 <= 64; ++offset) {
    std::unique_ptr<LinearSketch> sk;
    EXPECT_NO_THROW(sk = RestoreSketch(corrupt(offset), &error))
        << "offset " << offset;
  }
  const std::pair<int, size_t> aborting[] = {
      {9, 29},  {11, 28}, {12, 30}, {17, 33}, {18, 11}, {29, 35},
      {30, 34}, {34, 33}, {35, 35}, {40, 29}, {48, 35}, {50, 31}};
  for (const auto& [seed, offset] : aborting) {
    EXPECT_EQ(RestoreSketch(corrupt(offset), &error), nullptr)
        << "seed " << seed << " offset " << offset;
  }
}

TEST(Serde, WireSizeMatchesCellCount) {
  L0Sampler s(1 << 20, 4, 21);
  std::string buf;
  s.AppendTo(&buf);
  // header (4+8+4+8) + cells * 24 bytes.
  EXPECT_EQ(buf.size(), 24 + s.CellCount() * 24);
}

}  // namespace
}  // namespace gsketch
