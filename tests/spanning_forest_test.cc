// Tests for the AGM spanning-forest sketch and k-EDGECONNECT (Thm 2.3).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/k_edge_connect.h"
#include "src/core/spanning_forest.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"
#include "src/sketch/serde.h"

namespace gsketch {
namespace {

ForestOptions TestForestOptions() {
  ForestOptions opt;
  opt.repetitions = 6;
  return opt;
}

void Feed(SpanningForestSketch* sk, const Graph& g) {
  for (const auto& e : g.Edges()) {
    sk->Update(e.u, e.v, static_cast<int64_t>(e.weight));
  }
}

// Two decodes must list the same edges (u, v, weight) in the same order.
void ExpectSameEdges(const Graph& got, const Graph& want,
                     const std::string& tag) {
  const std::vector<WeightedEdge> a = got.Edges(), b = want.Edges();
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u) << tag << " edge " << i;
    EXPECT_EQ(a[i].v, b[i].v) << tag << " edge " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << tag << " edge " << i;
  }
}

// Test-local oracle: the copy-and-delete peel that ExtractWitness ran
// before it cancelled forests inside the component sums. The layers are
// read back from the sketch's wire format (magic, n, k, then k forest
// sketches); each later layer copy gets every earlier forest streamed out.
Graph CopyPeelWitness(const KEdgeConnectSketch& sk) {
  std::string wire;
  sk.AppendTo(&wire);
  ByteReader r(wire);
  for (int header = 0; header < 3; ++header) r.U32();
  std::vector<SpanningForestSketch> peeled;
  for (uint32_t i = 0; i < sk.k(); ++i) {
    peeled.push_back(*SpanningForestSketch::Deserialize(&r));
  }
  Graph witness(sk.num_nodes());
  for (size_t i = 0; i < peeled.size(); ++i) {
    std::vector<WeightedEdge> forest_edges = peeled[i].ExtractForest().Edges();
    if (forest_edges.empty()) break;
    for (const auto& e : forest_edges) witness.AddEdge(e.u, e.v, e.weight);
    for (size_t j = i + 1; j < peeled.size(); ++j) {
      for (const auto& e : forest_edges) {
        peeled[j].Update(e.u, e.v, -static_cast<int64_t>(e.weight));
      }
    }
  }
  return witness;
}

TEST(SpanningForest, ConnectedGraphYieldsSpanningTree) {
  Graph g = ErdosRenyi(32, 0.3, 1);
  if (g.NumComponents() != 1) GTEST_SKIP();
  SpanningForestSketch sk(32, TestForestOptions(), 11);
  Feed(&sk, g);
  Graph forest = sk.ExtractForest();
  EXPECT_EQ(forest.NumEdges(), 31u);
  EXPECT_EQ(forest.NumComponents(), 1u);
  EXPECT_TRUE(g.ContainsEdgesOf(forest));
}

TEST(SpanningForest, MatchesComponentStructure) {
  // Three fixed components: {0..9} path, {10..19} cycle, {20} isolated.
  Graph g(21);
  for (NodeId v = 0; v + 1 < 10; ++v) g.AddEdge(v, v + 1);
  for (NodeId v = 10; v < 20; ++v) g.AddEdge(v, v == 19 ? 10 : v + 1);
  SpanningForestSketch sk(21, TestForestOptions(), 13);
  Feed(&sk, g);
  Graph forest = sk.ExtractForest();
  EXPECT_EQ(forest.NumComponents(), 3u);
  EXPECT_EQ(forest.NumEdges(), 9u + 9u);
  EXPECT_TRUE(g.ContainsEdgesOf(forest));
}

TEST(SpanningForest, EmptyGraph) {
  SpanningForestSketch sk(10, TestForestOptions(), 17);
  Graph forest = sk.ExtractForest();
  EXPECT_EQ(forest.NumEdges(), 0u);
  EXPECT_EQ(forest.NumComponents(), 10u);
}

TEST(SpanningForest, SurvivesChurn) {
  Graph g = GridGraph(5, 5);
  auto stream = DynamicGraphStream::FromGraph(g);
  Rng rng(3);
  auto churned = stream.WithChurn(80, &rng);
  SpanningForestSketch sk(25, TestForestOptions(), 19);
  churned.Replay([&sk](NodeId u, NodeId v, int64_t d) { sk.Update(u, v, d); });
  Graph forest = sk.ExtractForest();
  EXPECT_EQ(forest.NumComponents(), 1u);
  EXPECT_TRUE(g.ContainsEdgesOf(forest)) << "sampled a deleted edge";
}

TEST(SpanningForest, DistributedMergeConnectivity) {
  Graph g = ErdosRenyi(40, 0.25, 5);
  auto stream = DynamicGraphStream::FromGraph(g);
  Rng rng(7);
  auto parts = stream.Partition(3, &rng);
  std::vector<SpanningForestSketch> sketches;
  for (int i = 0; i < 3; ++i) {
    sketches.emplace_back(40, TestForestOptions(), 23);  // same seed!
    parts[i].Replay([&](NodeId u, NodeId v, int64_t d) {
      sketches.back().Update(u, v, d);
    });
  }
  sketches[0].Merge(sketches[1]);
  sketches[0].Merge(sketches[2]);
  Graph forest = sketches[0].ExtractForest();
  EXPECT_EQ(forest.NumComponents(), g.NumComponents());
}

TEST(SpanningForest, CountComponentsAgainstTruth) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = ErdosRenyi(48, 0.05, seed);
    SpanningForestSketch sk(48, TestForestOptions(), 100 + seed);
    Feed(&sk, g);
    EXPECT_EQ(sk.CountComponents(), g.NumComponents()) << seed;
  }
}

TEST(SpanningForest, ExtractMinusMatchesStreamedOutCopy) {
  // ExtractForest(minus) cancels `minus` inside each component sum; it must
  // decode exactly what ExtractForest() decodes on a copy of the sketch
  // with `minus` streamed out.
  int multiplicity_two = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const NodeId n = 16 + static_cast<NodeId>(seed % 4) * 12;
    const double p = seed % 3 == 0 ? 0.06 : 0.25;
    Graph g = WithRandomWeights(ErdosRenyi(n, p, seed), 3, seed);
    SpanningForestSketch sk(n, TestForestOptions(), 500 + seed);
    Feed(&sk, g);
    // minus: a spanning forest of g with its multiplicities, plus about a
    // third of the other edges, which lie inside the forest's components.
    Graph minus = sk.ExtractForest();
    Rng rng(seed);
    for (const auto& e : g.Edges()) {
      if (!minus.HasEdge(e.u, e.v) && rng.Coin(0.3)) {
        minus.AddEdge(e.u, e.v, e.weight);
      }
    }
    for (const auto& e : minus.Edges()) multiplicity_two += e.weight == 2.0;
    SpanningForestSketch copy = sk;
    for (const auto& e : minus.Edges()) {
      copy.Update(e.u, e.v, -static_cast<int64_t>(e.weight));
    }
    ExpectSameEdges(sk.ExtractForest(minus), copy.ExtractForest(),
                    "seed=" + std::to_string(seed));
  }
  EXPECT_GT(multiplicity_two, 0) << "no multiplicity-2 edge was cancelled";
}

TEST(KEdgeConnect, WitnessMatchesCopyPeelOracle) {
  // Dense and sparse graphs with multiplicities and churn, k in {2, 3, 4};
  // the sparse ones run out of edges before the last layer.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const NodeId n = 20 + static_cast<NodeId>(seed % 3) * 20;
    const uint32_t k = 2 + static_cast<uint32_t>(seed % 3);
    const double p = seed % 2 == 1 ? 0.3 : 0.08;
    Graph g = WithRandomWeights(ErdosRenyi(n, p, seed), 2, seed);
    KEdgeConnectSketch sk(n, k, TestForestOptions(), 900 + seed);
    for (const auto& e : g.Edges()) {
      sk.Update(e.u, e.v, static_cast<int64_t>(e.weight));
    }
    Graph churn = ErdosRenyi(n, 0.1, seed + 100);
    for (const auto& e : churn.Edges()) sk.Update(e.u, e.v, 1);
    for (const auto& e : churn.Edges()) sk.Update(e.u, e.v, -1);
    ExpectSameEdges(sk.ExtractWitness(), CopyPeelWitness(sk),
                    "seed=" + std::to_string(seed));
  }
}

TEST(KEdgeConnect, WitnessContainsAllEdgesOfSmallCuts) {
  // Dumbbell with 2 bridges: both bridges participate in a cut of size 2,
  // so a k=3 witness must contain them.
  Graph g = Dumbbell(12, 0.8, 2, 7);
  KEdgeConnectSketch sk(24, 3, TestForestOptions(), 29);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph witness = sk.ExtractWitness();
  EXPECT_TRUE(g.ContainsEdgesOf(witness));
  size_t bridges_found = 0;
  for (const auto& e : witness.Edges()) {
    if ((e.u < 12) != (e.v < 12)) ++bridges_found;
  }
  EXPECT_EQ(bridges_found, 2u);
}

TEST(KEdgeConnect, WitnessEdgeCountBounded) {
  Graph g = ErdosRenyi(30, 0.5, 9);
  constexpr uint32_t k = 4;
  KEdgeConnectSketch sk(30, k, TestForestOptions(), 31);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph witness = sk.ExtractWitness();
  EXPECT_LE(witness.NumEdges(), static_cast<size_t>(k) * 29);
  EXPECT_TRUE(g.ContainsEdgesOf(witness));
}

TEST(KEdgeConnect, PreservesConnectivityCertificate) {
  // If G is connected, the witness must be connected (F_1 is spanning).
  Graph g = GridGraph(6, 5);
  KEdgeConnectSketch sk(30, 2, TestForestOptions(), 37);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph witness = sk.ExtractWitness();
  EXPECT_EQ(witness.NumComponents(), 1u);
}

TEST(KEdgeConnect, DeletionsRespected) {
  // Insert a clique, delete everything except a path: witness must contain
  // exactly the path edges.
  constexpr NodeId n = 10;
  Graph clique = CompleteGraph(n);
  KEdgeConnectSketch sk(n, 2, TestForestOptions(), 41);
  for (const auto& e : clique.Edges()) sk.Update(e.u, e.v, 1);
  for (const auto& e : clique.Edges()) {
    bool path_edge = (e.v == e.u + 1);
    if (!path_edge) sk.Update(e.u, e.v, -1);
  }
  Graph witness = sk.ExtractWitness();
  EXPECT_EQ(witness.NumComponents(), 1u);
  for (const auto& e : witness.Edges()) {
    EXPECT_EQ(e.v, e.u + 1) << "witness contains a deleted edge";
  }
}

TEST(KEdgeConnect, MinCutEdgesAlwaysPresentAcrossSeeds) {
  // Witness property sweep: for a planted 3-bridge dumbbell and k=5, all
  // bridges must appear, for every seed.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = Dumbbell(10, 0.9, 3, 50 + seed);
    KEdgeConnectSketch sk(20, 5, TestForestOptions(), 60 + seed);
    for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
    Graph witness = sk.ExtractWitness();
    size_t bridges = 0;
    for (const auto& e : witness.Edges()) {
      if ((e.u < 10) != (e.v < 10)) ++bridges;
    }
    EXPECT_EQ(bridges, 3u) << seed;
  }
}

}  // namespace
}  // namespace gsketch
