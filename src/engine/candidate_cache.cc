#include "engine/candidate_cache.h"

namespace rlqvo {

namespace {

/// splitmix64 finalizer — strong 64-bit mixing per ingested word.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t QueryFingerprint(const Graph& query) {
  uint64_t h = 0x5192fe1e00d5b2a1ULL;
  h = Mix(h, query.num_vertices());
  h = Mix(h, query.num_edges());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    h = Mix(h, query.label(u));
  }
  // The directedness and edge-label alphabet, then the canonical labeled
  // edge stream (ForEachLabeledEdge is (u, elabel, label(v), v)-ordered —
  // content-pure). A directed edge, its reverse, an undirected edge over
  // the same endpoints and a relabeled edge all match differently, and each
  // perturbs the hash: an undirected graph emits each edge once as u < v,
  // a directed one emits u -> v as-is.
  h = Mix(h, query.directed() ? 1 : 0);
  h = Mix(h, query.num_edge_labels());
  query.ForEachLabeledEdge([&h](VertexId u, VertexId v, EdgeLabel e) {
    h = Mix(h, (static_cast<uint64_t>(u) << 32) | v);
    h = Mix(h, e);
  });
  return h;
}

}  // namespace rlqvo
