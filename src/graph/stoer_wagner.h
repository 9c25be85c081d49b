// Stoer–Wagner global minimum cut: the exact baseline for Fig. 1 / Thm 3.2
// experiments and the post-processing oracle applied to the small witness
// graphs H_i produced by k-EDGECONNECT.
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

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_GRAPH_STOER_WAGNER_H_
