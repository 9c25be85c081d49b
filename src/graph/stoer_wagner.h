// Exact global minimum cut: the baseline for Fig. 1 / Thm 3.2 experiments
// and the post-processing applied to the small witness graphs H_i produced
// by k-EDGECONNECT (StoerWagnerMinCut when a side is needed, MinCutValue
// when only the value is read).
#ifndef GRAPHSKETCH_SRC_GRAPH_STOER_WAGNER_H_
#define GRAPHSKETCH_SRC_GRAPH_STOER_WAGNER_H_

#include <vector>

#include "src/graph/graph.h"

namespace gsketch {

/// A global minimum cut: its total weight and one side of the partition.
struct MinCutResult {
  double value = 0.0;
  std::vector<NodeId> side;  ///< Nodes of one shore (empty if disconnected
                             ///< graphs short-circuit to value 0).
};

/// Exact global min cut in O(n·m·log n + n^2) time: maximum-adjacency
/// phases over adjacency lists with an indexed binary heap, so a sparse
/// k-EDGECONNECT witness (m <= k(n-1)) is cheap to post-process. Ties go to
/// the lowest node id and the earliest phase, which fixes `side` exactly on
/// integer weights. A disconnected graph returns value 0 with one component
/// as the side. Graphs with fewer than 2 nodes return 0.
MinCutResult StoerWagnerMinCut(const Graph& g);

/// The value of StoerWagnerMinCut(g) without a side, for decodes that only
/// read the value. Nagamochi–Ibaraki contraction: each phase bounds the cut
/// by the minimum weighted degree, runs one maximum-adjacency order that
/// merges every scanned pair whose key proves a connectivity of at least
/// the bound, merges the phase's last two nodes, and contracts the merged
/// sets. A k-EDGECONNECT witness settles in a few
/// phases instead of n − 1. Exact on integer weights; other nonnegative
/// weights match up to summation order. Same n < 2 and disconnected rules
/// (value 0).
double MinCutValue(const Graph& g);

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_GRAPH_STOER_WAGNER_H_
