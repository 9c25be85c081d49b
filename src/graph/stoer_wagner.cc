#include "src/graph/stoer_wagner.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>
#include <utility>

#include "src/graph/union_find.h"

namespace gsketch {

namespace {

constexpr uint32_t kNotQueued = std::numeric_limits<uint32_t>::max();

// Indexed binary max-heap over super-node ids for the maximum-adjacency
// order. The order is (key descending, id ascending), so equal keys pop
// lowest id first — the tie rule of a left-to-right argmax scan.
class AdjacencyQueue {
 public:
  explicit AdjacencyQueue(NodeId n) : key_(n, 0.0), pos_(n, kNotQueued) {
    heap_.reserve(n);
  }

  // Queues `ids` (ascending) with key 0. Ascending ids under equal keys
  // already satisfy the heap order, so no sifting is needed.
  void Reset(const std::vector<NodeId>& ids) {
    heap_ = ids;
    for (size_t i = 0; i < heap_.size(); ++i) {
      key_[heap_[i]] = 0.0;
      pos_[heap_[i]] = static_cast<uint32_t>(i);
    }
  }

  bool Contains(NodeId v) const { return pos_[v] != kNotQueued; }
  double Key(NodeId v) const { return key_[v]; }

  // Adds `w` to v's key and restores the heap order (v must be queued).
  void Add(NodeId v, double w) {
    key_[v] += w;
    if (w > 0) {
      SiftUp(pos_[v]);
    } else {
      SiftDown(pos_[v]);
    }
  }

  NodeId PopMax() {
    const NodeId top = heap_[0];
    pos_[top] = kNotQueued;
    const NodeId tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = tail;
      pos_[tail] = 0;
      SiftDown(0);
    }
    return top;
  }

 private:
  bool Before(NodeId a, NodeId b) const {
    return key_[a] > key_[b] || (key_[a] == key_[b] && a < b);
  }

  void Place(uint32_t i, NodeId v) {
    heap_[i] = v;
    pos_[v] = i;
  }

  void SiftUp(uint32_t i) {
    const NodeId v = heap_[i];
    while (i > 0) {
      const uint32_t parent = (i - 1) / 2;
      if (!Before(v, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, v);
  }

  void SiftDown(uint32_t i) {
    const NodeId v = heap_[i];
    const auto size = static_cast<uint32_t>(heap_.size());
    for (;;) {
      uint32_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && Before(heap_[child + 1], heap_[child])) ++child;
      if (!Before(heap_[child], v)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, v);
  }

  std::vector<double> key_;
  std::vector<uint32_t> pos_;
  std::vector<NodeId> heap_;
};

// A graph on super-nodes [0, size()) in CSR form, parallel edges summed and
// self-loops dropped.
struct ContractedGraph {
  std::vector<size_t> first{0};
  std::vector<std::pair<NodeId, double>> adj;

  NodeId size() const { return static_cast<NodeId>(first.size() - 1); }

  double MinWeightedDegree() const {
    double best = 0.0;
    for (NodeId v = 0; v < size(); ++v) {
      double degree = 0.0;
      for (size_t e = first[v]; e < first[v + 1]; ++e) degree += adj[e].second;
      if (v == 0 || degree < best) best = degree;
    }
    return best;
  }

  // The graph with every set of `uf` merged into one super-node, numbered
  // in order of each set's smallest member.
  ContractedGraph Contract(UnionFind* uf) const {
    const NodeId n = size();
    std::vector<NodeId> label(n);
    NodeId sets = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (uf->Find(v) == v) label[v] = sets++;
    }
    // Members grouped by set (counting sort on the set label).
    std::vector<size_t> start(sets + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      label[v] = label[uf->Find(v)];
      ++start[label[v] + 1];
    }
    for (NodeId s = 0; s < sets; ++s) start[s + 1] += start[s];
    std::vector<NodeId> members(n);
    std::vector<size_t> fill(start.begin(), start.end() - 1);
    for (NodeId v = 0; v < n; ++v) members[fill[label[v]]++] = v;

    ContractedGraph out;
    out.first.reserve(sets + 1);
    out.adj.reserve(adj.size());
    // While s is built, edge (s, t) sits at out.adj[slot[t]] iff
    // owner[t] == s.
    std::vector<size_t> slot(sets);
    std::vector<NodeId> owner(sets, sets);
    for (NodeId s = 0; s < sets; ++s) {
      for (size_t i = start[s]; i < start[s + 1]; ++i) {
        const NodeId x = members[i];
        for (size_t e = first[x]; e < first[x + 1]; ++e) {
          const NodeId t = label[adj[e].first];
          if (t == s) continue;
          if (owner[t] == s) {
            out.adj[slot[t]].second += adj[e].second;
          } else {
            owner[t] = s;
            slot[t] = out.adj.size();
            out.adj.emplace_back(t, adj[e].second);
          }
        }
      }
      out.first.push_back(out.adj.size());
    }
    return out;
  }
};

}  // namespace

MinCutResult StoerWagnerMinCut(const Graph& g) {
  const NodeId n = g.NumNodes();
  MinCutResult best;
  if (n < 2) return best;

  // Disconnected short-circuit: cut value 0, one component as the side.
  if (g.NumComponents() > 1) {
    std::vector<int64_t> mark(n, 0);
    std::queue<NodeId> q;
    q.push(0);
    mark[0] = 1;
    while (!q.empty()) {
      NodeId u = q.front();
      q.pop();
      best.side.push_back(u);
      for (const auto& [v, w] : g.Neighbors(u)) {
        (void)w;
        if (!mark[v]) {
          mark[v] = 1;
          q.push(v);
        }
      }
    }
    best.value = 0.0;
    return best;
  }

  // Original adjacency in CSR form. A super-node keeps the id of the node
  // that absorbed the others; rep[] maps every original node to it and
  // next_member[] chains its members, so a phase scans each original edge
  // from both ends (O(m)) and a merge splices two chains.
  std::vector<size_t> first(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) first[u + 1] = first[u] + g.Degree(u);
  std::vector<std::pair<NodeId, double>> adj(first[n]);
  for (NodeId u = 0; u < n; ++u) {
    std::copy(g.Neighbors(u).begin(), g.Neighbors(u).end(),
              adj.begin() + static_cast<std::ptrdiff_t>(first[u]));
  }
  std::vector<NodeId> rep(n), next_member(n, n), tail_member(n);
  std::vector<NodeId> active(n);
  for (NodeId i = 0; i < n; ++i) rep[i] = tail_member[i] = active[i] = i;

  AdjacencyQueue queue(n);
  best.value = std::numeric_limits<double>::infinity();
  while (active.size() > 1) {
    // Maximum adjacency order. Once every other super-node is in A, the
    // key of `last` is its cut-of-the-phase.
    queue.Reset(active);
    NodeId prev = n, last = n;
    for (size_t step = 0; step < active.size(); ++step) {
      prev = last;
      last = queue.PopMax();
      for (NodeId x = last; x != n; x = next_member[x]) {
        for (size_t e = first[x]; e < first[x + 1]; ++e) {
          const NodeId r = rep[adj[e].first];
          if (queue.Contains(r)) queue.Add(r, adj[e].second);
        }
      }
    }
    const double cut = queue.Key(last);
    if (cut < best.value) {
      best.value = cut;
      best.side.clear();
      for (NodeId x = last; x != n; x = next_member[x]) best.side.push_back(x);
    }
    // Merge `last` into `prev`.
    for (NodeId x = last; x != n; x = next_member[x]) rep[x] = prev;
    next_member[tail_member[prev]] = last;
    tail_member[prev] = tail_member[last];
    active.erase(std::find(active.begin(), active.end(), last));
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

double MinCutValue(const Graph& g) {
  const NodeId n = g.NumNodes();
  if (n < 2 || g.NumComponents() > 1) return 0.0;

  ContractedGraph h;
  h.first.reserve(n + 1);
  for (NodeId u = 0; u < n; ++u) {
    h.adj.insert(h.adj.end(), g.Neighbors(u).begin(), g.Neighbors(u).end());
    h.first.push_back(h.adj.size());
  }

  // Every super-node's weighted degree is a cut, so the smallest bounds λ.
  AdjacencyQueue queue(n);
  std::vector<NodeId> ids;
  double best = h.MinWeightedDegree();
  for (;;) {
    // One maximum-adjacency order. When u's key reaches `best` right after
    // `last` was scanned, λ(last, u) >= key(u) >= best: no cut below `best`
    // separates them, so they may be merged.
    const NodeId size = h.size();
    ids.resize(size);
    for (NodeId v = 0; v < size; ++v) ids[v] = v;
    queue.Reset(ids);
    UnionFind uf(size);
    NodeId prev = size, last = size;
    for (NodeId step = 0; step < size; ++step) {
      prev = last;
      last = queue.PopMax();
      for (size_t e = h.first[last]; e < h.first[last + 1]; ++e) {
        const NodeId u = h.adj[e].first;
        if (!queue.Contains(u)) continue;
        queue.Add(u, h.adj[e].second);
        if (queue.Key(u) >= best) uf.Union(last, u);
      }
    }
    // The cut of the phase is key(last), the weighted degree of `last`,
    // which `best` already bounds; it is also λ(prev, last), so prev and
    // last merge as well.
    uf.Union(prev, last);
    if (uf.NumComponents() == 1) return best;
    h = h.Contract(&uf);
    best = std::min(best, h.MinWeightedDegree());
  }
}

}  // namespace gsketch
