// Tests for the exact baselines: BFS, Stoer–Wagner, Dinic, Gomory–Hu.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/cuts.h"
#include "src/graph/dinic.h"
#include "src/graph/generators.h"
#include "src/graph/gomory_hu.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/union_find.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

TEST(Bfs, PathGraphDistances) {
  Graph g(5);
  for (NodeId i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  auto d = BfsDistances(g, 0);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Bfs, UnreachableIsMinusOne) {
  Graph g(4);
  g.AddEdge(0, 1);
  auto d = BfsDistances(g, 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], -1);
  EXPECT_EQ(d[3], -1);
}

TEST(StoerWagner, BridgeGraph) {
  // Two triangles joined by one edge: min cut = 1.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  g.AddEdge(2, 3);
  auto r = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
  EXPECT_TRUE(r.side.size() == 3 || r.side.size() == 6 - 3);
}

TEST(StoerWagner, CompleteGraphMinCutIsDegree) {
  Graph g = CompleteGraph(7);
  auto r = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(r.value, 6.0);
}

TEST(StoerWagner, WeightedCut) {
  Graph g(4);
  g.AddEdge(0, 1, 10.0);
  g.AddEdge(2, 3, 10.0);
  g.AddEdge(1, 2, 0.5);
  g.AddEdge(0, 3, 0.25);
  auto r = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(r.value, 0.75);
}

TEST(StoerWagner, DisconnectedIsZero) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  auto r = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_FALSE(r.side.empty());
}

TEST(StoerWagner, DumbbellMatchesPlantedBridges) {
  Graph g = Dumbbell(16, 0.7, 3, 4);
  auto r = StoerWagnerMinCut(g);
  EXPECT_DOUBLE_EQ(r.value, 3.0);
}

TEST(StoerWagner, MatchesCutValueOfReportedSide) {
  Graph g = ErdosRenyi(24, 0.3, 11);
  auto r = StoerWagnerMinCut(g);
  std::vector<bool> side(g.NumNodes(), false);
  for (NodeId v : r.side) side[v] = true;
  EXPECT_DOUBLE_EQ(CutValue(g, side), r.value);
}

// Test-local oracle: the dense Θ(n^3) Stoer–Wagner (weight matrix, argmax
// scans) that the library's sparse heap-based version replaced. The sparse
// version keeps its tie rules (lowest id among equal connectivities, strict
// `<` across phases), so on integer weights both return the same value and
// the same side.
MinCutResult DenseStoerWagnerOracle(const Graph& g) {
  const NodeId n = g.NumNodes();
  MinCutResult best;
  if (n < 2) return best;
  if (g.NumComponents() > 1) {
    // Same short-circuit as the library: node 0's component in BFS order.
    std::vector<bool> mark(n, false);
    std::queue<NodeId> q;
    q.push(0);
    mark[0] = true;
    while (!q.empty()) {
      NodeId u = q.front();
      q.pop();
      best.side.push_back(u);
      for (const auto& [v, w] : g.Neighbors(u)) {
        (void)w;
        if (!mark[v]) {
          mark[v] = true;
          q.push(v);
        }
      }
    }
    return best;
  }
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (const auto& e : g.Edges()) {
    w[e.u][e.v] += e.weight;
    w[e.v][e.u] += e.weight;
  }
  std::vector<std::vector<NodeId>> members(n);
  for (NodeId i = 0; i < n; ++i) members[i] = {i};
  std::vector<bool> merged(n, false);
  best.value = std::numeric_limits<double>::infinity();
  for (NodeId phase = 0; phase + 1 < n; ++phase) {
    std::vector<double> conn(n, 0.0);
    std::vector<bool> in_a(n, false);
    NodeId prev = 0, last = 0;
    for (NodeId step = 0; step < n - phase; ++step) {
      NodeId pick = n;
      for (NodeId v = 0; v < n; ++v) {
        if (merged[v] || in_a[v]) continue;
        if (pick == n || conn[v] > conn[pick]) pick = v;
      }
      in_a[pick] = true;
      prev = last;
      last = pick;
      for (NodeId v = 0; v < n; ++v) {
        if (!merged[v] && !in_a[v]) conn[v] += w[pick][v];
      }
    }
    double cut = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (!merged[v] && v != last) cut += w[last][v];
    }
    if (cut < best.value) {
      best.value = cut;
      best.side = members[last];
    }
    merged[last] = true;
    members[prev].insert(members[prev].end(), members[last].begin(),
                         members[last].end());
    for (NodeId v = 0; v < n; ++v) {
      if (!merged[v] && v != prev) {
        w[prev][v] += w[last][v];
        w[v][prev] = w[prev][v];
      }
    }
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

// Global min cut as min over v of maxflow(0, v); valid for connected graphs.
double DinicGlobalMinCut(const Graph& g) {
  double best = std::numeric_limits<double>::infinity();
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    best = std::min(best, MinCutBetween(g, 0, v));
  }
  return best;
}

// A k-EDGECONNECT-shaped witness: k spanning forests peeled off a random
// graph, each a forest of what the earlier ones left (random edge order),
// with multiplicities drawn from [1, max_mult].
Graph PeeledForestUnion(NodeId n, double p, uint32_t k, int64_t max_mult,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEdge> remaining = ErdosRenyi(n, p, seed).Edges();
  Graph h(n);
  for (uint32_t i = 0; i < k; ++i) {
    rng.Shuffle(&remaining);
    UnionFind uf(n);
    std::vector<WeightedEdge> rest;
    for (const auto& e : remaining) {
      if (uf.Union(e.u, e.v)) {
        h.AddEdge(e.u, e.v, static_cast<double>(rng.Range(1, max_mult)));
      } else {
        rest.push_back(e);
      }
    }
    remaining = std::move(rest);
  }
  return h;
}

// The seeded corpus for the sparse-vs-dense check: Erdős–Rényi graphs over
// varied n and density (the sparse ones often disconnected), integer
// multiplicities, and the n in {0, 1, 2} edge cases.
std::vector<std::pair<std::string, Graph>> IntegerWeightedCorpus() {
  std::vector<std::pair<std::string, Graph>> corpus;
  corpus.emplace_back("n=0", Graph(0));
  corpus.emplace_back("n=1", Graph(1));
  corpus.emplace_back("n=2 no edge", Graph(2));
  Graph pair(2);
  pair.AddEdge(0, 1, 3.0);
  corpus.emplace_back("n=2 edge", pair);
  const NodeId sizes[] = {3, 5, 8, 13, 21, 34, 55};
  const double densities[] = {0.08, 0.2, 0.45, 0.8};
  uint64_t seed = 1000;
  for (NodeId n : sizes) {
    for (double p : densities) {
      for (int rep = 0; rep < 11; ++rep, ++seed) {
        Graph g = ErdosRenyi(n, p, seed);
        const std::string tag = "er n=" + std::to_string(n) +
                                " p=" + std::to_string(p) +
                                " seed=" + std::to_string(seed);
        // Half the seeds carry multiplicities; the unit-weight ones are
        // where equal connectivities (and so the tie rules) are common.
        if (rep % 2 == 1) {
          corpus.emplace_back(tag + " mult", WithRandomWeights(g, 5, seed));
        } else {
          corpus.emplace_back(tag, std::move(g));
        }
      }
    }
  }
  for (NodeId n : {6, 12, 24, 40}) {
    for (int rep = 0; rep < 5; ++rep, ++seed) {
      corpus.emplace_back("forests n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed),
                          PeeledForestUnion(n, 0.4, 3, 2, seed));
    }
  }
  return corpus;
}

TEST(StoerWagner, SparseMatchesDenseOracleOnIntegerWeights) {
  const auto corpus = IntegerWeightedCorpus();
  ASSERT_GE(corpus.size(), 300u);
  int disconnected = 0;
  for (const auto& [tag, g] : corpus) {
    const MinCutResult got = StoerWagnerMinCut(g);
    const MinCutResult want = DenseStoerWagnerOracle(g);
    EXPECT_EQ(got.value, want.value) << tag;
    EXPECT_EQ(got.side, want.side) << tag;
    if (g.NumNodes() >= 2 && g.NumComponents() > 1) ++disconnected;
  }
  EXPECT_GE(disconnected, 20) << "corpus lost its disconnected cases";
}

TEST(StoerWagner, SparseMatchesDenseOracleOnWitnessShapedGraph) {
  // The k-EDGECONNECT post-processing shape: k = 3 forests at n = 512.
  for (uint64_t seed : {7, 8}) {
    Graph h = PeeledForestUnion(512, 0.02, 3, seed == 7 ? 1 : 3, seed);
    ASSERT_LE(h.NumEdges(), 3u * 511u);
    ASSERT_EQ(h.NumComponents(), 1u) << "must take the sparse phases";
    const MinCutResult got = StoerWagnerMinCut(h);
    const MinCutResult want = DenseStoerWagnerOracle(h);
    EXPECT_EQ(got.value, want.value) << seed;
    EXPECT_EQ(got.side, want.side) << seed;
  }
}

TEST(StoerWagner, SparseMatchesDenseOracleOnFractionalWeights) {
  // Summation order differs between the two, so only the value is pinned,
  // to 1e-9 relative.
  Rng rng(99);
  for (uint64_t seed = 2000; seed < 2040; ++seed) {
    const NodeId n = static_cast<NodeId>(4 + rng.Below(30));
    Graph g = ErdosRenyi(n, 0.3, seed);
    Graph weighted(n);
    for (const auto& e : g.Edges()) {
      weighted.AddEdge(e.u, e.v, 0.01 + rng.Unit() * 9.99);
    }
    const double got = StoerWagnerMinCut(weighted).value;
    const double want = DenseStoerWagnerOracle(weighted).value;
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << seed;
  }
}

TEST(MinCutValue, MatchesStoerWagnerOnOracleCorpus) {
  // The contraction algorithm must return exactly StoerWagnerMinCut's value
  // on integer weights: the oracle corpus (n in {0, 1, 2}, disconnected
  // graphs, multiplicities) and both witness-shaped n = 512 graphs.
  int disconnected = 0;
  for (const auto& [tag, g] : IntegerWeightedCorpus()) {
    EXPECT_EQ(MinCutValue(g), StoerWagnerMinCut(g).value) << tag;
    if (g.NumNodes() >= 2 && g.NumComponents() > 1) {
      EXPECT_EQ(MinCutValue(g), 0.0) << tag;
      ++disconnected;
    }
  }
  EXPECT_GE(disconnected, 20) << "corpus lost its disconnected cases";
  EXPECT_EQ(MinCutValue(Graph(0)), 0.0);
  EXPECT_EQ(MinCutValue(Graph(1)), 0.0);
  Graph pair(2);
  pair.AddEdge(0, 1, 2.5);
  EXPECT_EQ(MinCutValue(pair), 2.5);
  for (uint64_t seed : {7, 8}) {
    Graph h = PeeledForestUnion(512, 0.02, 3, seed == 7 ? 1 : 3, seed);
    ASSERT_EQ(h.NumComponents(), 1u);
    EXPECT_EQ(MinCutValue(h), StoerWagnerMinCut(h).value) << seed;
  }
  // Fractional weights: only the summation order differs.
  Rng rng(99);
  for (uint64_t seed = 2000; seed < 2040; ++seed) {
    const NodeId n = static_cast<NodeId>(4 + rng.Below(30));
    Graph g = ErdosRenyi(n, 0.3, seed);
    Graph weighted(n);
    for (const auto& e : g.Edges()) {
      weighted.AddEdge(e.u, e.v, 0.01 + rng.Unit() * 9.99);
    }
    const double want = StoerWagnerMinCut(weighted).value;
    EXPECT_NEAR(MinCutValue(weighted), want,
                1e-9 * std::max(1.0, std::abs(want)))
        << seed;
  }
}

TEST(Dinic, SeriesParallel) {
  Graph g(4);
  g.AddEdge(0, 1, 3.0);
  g.AddEdge(1, 3, 2.0);
  g.AddEdge(0, 2, 2.0);
  g.AddEdge(2, 3, 4.0);
  EXPECT_DOUBLE_EQ(MinCutBetween(g, 0, 3), 4.0);  // min(3,2)+min(2,4)
}

TEST(Dinic, DisconnectedPairIsZero) {
  Graph g(4);
  g.AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(MinCutBetween(g, 0, 3), 0.0);
}

TEST(Dinic, CapStopsEarly) {
  Graph g = CompleteGraph(10);
  EXPECT_DOUBLE_EQ(MinCutBetween(g, 0, 1, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(MinCutBetween(g, 0, 1), 9.0);
}

TEST(Dinic, MinCutSideSeparates) {
  Graph g = Dumbbell(10, 0.8, 2, 5);
  Dinic d(g);
  double f = d.MaxFlow(0, 15);
  EXPECT_DOUBLE_EQ(f, 2.0);
  auto side = d.MinCutSide(0);
  std::vector<bool> in(g.NumNodes(), false);
  for (NodeId v : side) in[v] = true;
  EXPECT_TRUE(in[0]);
  EXPECT_FALSE(in[15]);
  EXPECT_DOUBLE_EQ(CutValue(g, in), 2.0);
}

TEST(Dinic, MatchesStoerWagnerGlobalMin) {
  // min over v of maxflow(0, v) == global min cut for connected graphs.
  int checked = 0;
  for (uint64_t seed = 17; seed < 25; ++seed) {
    Graph g = ErdosRenyi(16, 0.35, seed);
    if (g.NumComponents() != 1) continue;
    ++checked;
    EXPECT_DOUBLE_EQ(DinicGlobalMinCut(g), StoerWagnerMinCut(g).value)
        << seed;
  }
  EXPECT_GE(checked, 3) << "seed range produced too few connected graphs";
}

TEST(Dinic, MatchesStoerWagnerOnOracleCorpus) {
  // The sparse-vs-dense corpus, cross-checked against max-flow as well.
  int checked = 0;
  for (const auto& [tag, g] : IntegerWeightedCorpus()) {
    if (g.NumNodes() < 2 || g.NumComponents() != 1) continue;
    ++checked;
    EXPECT_DOUBLE_EQ(DinicGlobalMinCut(g), StoerWagnerMinCut(g).value) << tag;
  }
  EXPECT_GE(checked, 150) << "corpus produced too few connected graphs";
}

TEST(GomoryHu, PathGraphTree) {
  Graph g(4);
  g.AddEdge(0, 1, 3.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(2, 3, 2.0);
  auto t = GomoryHuTree::Build(g);
  EXPECT_DOUBLE_EQ(t.MinCutValue(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.MinCutValue(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(t.MinCutValue(2, 3), 2.0);
}

TEST(GomoryHu, MatchesDinicOnAllPairs) {
  Graph g = ErdosRenyi(14, 0.4, 23);
  auto t = GomoryHuTree::Build(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      EXPECT_DOUBLE_EQ(t.MinCutValue(u, v), MinCutBetween(g, u, v))
          << u << "," << v;
    }
  }
}

TEST(GomoryHu, TreeEdgesInduceTheirCutValue) {
  // The cut-tree property Fig. 3 relies on: removing a tree edge yields a
  // bipartition whose cut value in G equals the edge weight.
  Graph g = ErdosRenyi(16, 0.35, 29);
  auto t = GomoryHuTree::Build(g);
  for (NodeId v : t.EdgeList()) {
    auto side_nodes = t.CutSide(v);
    std::vector<bool> side(g.NumNodes(), false);
    for (NodeId x : side_nodes) side[x] = true;
    EXPECT_DOUBLE_EQ(CutValue(g, side), t.ParentWeight(v)) << v;
  }
}

TEST(GomoryHu, MinEdgeOnPathInducesSeparatingCut) {
  Graph g = ErdosRenyi(12, 0.45, 31);
  auto t = GomoryHuTree::Build(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      NodeId f = t.MinEdgeOnPath(u, v);
      auto side_nodes = t.CutSide(f);
      std::vector<bool> side(g.NumNodes(), false);
      for (NodeId x : side_nodes) side[x] = true;
      EXPECT_NE(side[u], side[v]) << "cut must separate the pair";
    }
  }
}

TEST(GomoryHu, WeightedGraph) {
  Graph g = WithRandomWeights(ErdosRenyi(12, 0.5, 37), 8, 41);
  auto t = GomoryHuTree::Build(g);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId u = static_cast<NodeId>(rng.Below(12));
    NodeId v = static_cast<NodeId>(rng.Below(12));
    if (u == v) continue;
    EXPECT_NEAR(t.MinCutValue(u, v), MinCutBetween(g, u, v), 1e-6);
  }
}

TEST(GomoryHu, DisconnectedGraphZeroCuts) {
  Graph g(5);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(3, 4, 2.0);
  auto t = GomoryHuTree::Build(g);
  EXPECT_DOUBLE_EQ(t.MinCutValue(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(t.MinCutValue(0, 1), 2.0);
}

// The two Gomory-Hu properties Fig. 3 rests on, swept over random graphs:
// flow equivalence (path-min == max-flow) and the cut-tree property (tree
// edges induce cuts achieving their weight).
class GomoryHuSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(GomoryHuSweep, FlowEquivalenceAndCutTree) {
  auto [p, seed] = GetParam();
  Graph g = ErdosRenyi(13, p, seed);
  auto t = GomoryHuTree::Build(g);
  // Flow equivalence on all pairs.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      EXPECT_NEAR(t.MinCutValue(u, v), MinCutBetween(g, u, v), 1e-9)
          << u << "," << v << " p=" << p << " seed=" << seed;
    }
  }
  // Cut-tree property on all tree edges.
  for (NodeId v : t.EdgeList()) {
    auto side_nodes = t.CutSide(v);
    std::vector<bool> side(g.NumNodes(), false);
    for (NodeId x : side_nodes) side[x] = true;
    EXPECT_NEAR(CutValue(g, side), t.ParentWeight(v), 1e-9)
        << "tree edge " << v << " p=" << p << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitiesAndSeeds, GomoryHuSweep,
    ::testing::Combine(::testing::Values(0.15, 0.35, 0.7),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace gsketch
