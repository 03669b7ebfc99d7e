#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace rlqvo {

/// Vertex identifier. Vertices of a graph are densely numbered [0, n).
using VertexId = uint32_t;
/// Vertex label identifier, densely numbered [0, |L|).
using Label = uint32_t;
/// Edge label identifier, densely numbered [0, |Σ|). Undirected
/// vertex-labeled graphs — the degenerate case every pre-existing workload
/// lives in — carry the single edge label 0 on every edge.
using EdgeLabel = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/// The largest vertex label a graph can hold: Graph::num_labels() is the
/// largest label plus one, a 32-bit count. The graph loaders reject larger
/// labels and GraphBuilder::Build CHECKs them.
inline constexpr Label kMaxLabel = UINT32_MAX - 1;

/// Direction class of a labeled adjacency lookup. A directed graph keeps
/// two (edge-label, vertex-label)-sliced CSRs per the model below; an
/// undirected graph has ONE direction class — kIn lookups forward to the
/// same (symmetric) slices as kOut, so direction-agnostic callers can pass
/// either.
enum class EdgeDir : uint8_t {
  kOut = 0,  ///< edges leaving the anchor vertex (u -> w)
  kIn = 1,   ///< edges entering the anchor vertex (w -> u)
};

/// The other direction class: kOut <-> kIn.
constexpr EdgeDir Reverse(EdgeDir dir) {
  return dir == EdgeDir::kOut ? EdgeDir::kIn : EdgeDir::kOut;
}

/// \brief Immutable labeled graph in (direction, edge-label, vertex-label)-
/// sliced CSR form.
///
/// This is the shared representation for both data graphs G and query graphs
/// q (Definition II.1 of the paper), generalized to directed, edge-labeled
/// graphs (knowledge-graph / provenance / cypher-style workloads). Two
/// layers of adjacency coexist:
///
/// **Skeleton CSR (always present).** The symmetric, deduplicated
/// undirected skeleton: each neighbor list holds every vertex adjacent in
/// ANY direction via ANY edge label, ordered by (label(w), w), so the
/// neighbors carrying one vertex label form a contiguous *slice* that is
/// itself sorted by vertex id. A per-vertex slice index maps a label to its
/// slice in O(log #labels-in-N(v)), which gives
///   - NeighborsWithLabel(v, l): the label-restricted neighborhood as a
///     sorted span — the input of the enumerator's candidate intersections
///     in the degenerate case;
///   - HasEdge(u, v): binary search confined to the relevant slice;
///   - per-label degree counts as plain slice lengths (NLF/GQL filters);
///   - connectivity/BFS/ordering heuristics that are direction-agnostic.
///
/// **Directed labeled CSRs (built iff the graph is directed or uses more
/// than one edge label).** Per direction class, a CSR whose neighbor lists
/// are ordered by (edge-label, label(w), w); a per-vertex slice index maps
/// an (edge-label, vertex-label) pair to its id-sorted slice. This serves
///   - NeighborsWith(v, dir, elabel, vlabel): the constraint-restricted
///     neighborhood as a sorted span — the intersection input for
///     direction/edge-label-constrained query edges;
///   - HasEdge(u, v, dir, elabel): binary search confined to one slice;
///   - per-(elabel, vlabel) degree counts (directed NLF).
/// An undirected multi-edge-label graph builds only the (symmetric) kOut
/// CSR; kIn lookups forward to it. **Degenerate-case contract:** an
/// undirected single-edge-label graph builds neither — the labeled API
/// forwards to the identical skeleton slices, so every pre-existing kernel,
/// counter and embedding is bit-identical to the purely undirected
/// representation.
///
/// **Neighbour-label signatures (data graphs only).** NeighborLabelMasks()
/// gives each vertex a 64-bit summary of the labels in its skeleton
/// neighbourhood, which the NLF-based filters use to reject candidates
/// before counting. It is built on the graph's first use as a data graph,
/// so query graphs never carry it.
///
/// Construct via GraphBuilder or the loaders in graph_io.h. Graphs are
/// copyable; a copy shares the signatures built so far.
class Graph {
 public:
  Graph() = default;

  /// Number of vertices |V|.
  uint32_t num_vertices() const { return static_cast<uint32_t>(labels_.size()); }

  /// Number of edges |E|: directed edges (u, v, elabel) for a directed
  /// graph, distinct labeled edges {u, v, elabel} for an undirected one.
  /// For the degenerate case this is the classic undirected edge count.
  uint64_t num_edges() const { return num_edges_; }

  /// Number of distinct labels that appear (= max label id + 1).
  uint32_t num_labels() const { return num_labels_; }

  /// True iff edges are directed (u -> v distinct from v -> u).
  bool directed() const { return directed_; }

  /// Number of distinct edge labels (= max edge-label id + 1; always >= 1).
  uint32_t num_edge_labels() const { return num_edge_labels_; }

  /// True iff this graph is the degenerate case — undirected with the
  /// single edge label 0 — whose labeled lookups forward to the skeleton
  /// slices (see the class comment). Matching layers use this to route
  /// between the classic undirected path and the constraint-aware one.
  bool degenerate() const { return !directed_ && num_edge_labels_ == 1; }

  /// Number of edges carrying edge label e (0 for unseen labels). For the
  /// degenerate case EdgeLabelEdgeCount(0) == num_edges().
  uint64_t EdgeLabelEdgeCount(EdgeLabel e) const {
    return e < edge_label_freq_.size() ? edge_label_freq_[e] : 0;
  }

  /// Label of vertex v.
  Label label(VertexId v) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    return labels_[v];
  }

  /// Skeleton degree d(v): the number of distinct vertices adjacent to v in
  /// any direction via any edge label.
  uint32_t degree(VertexId v) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Labeled out-degree: number of (w, elabel) out-edges of v. Equals
  /// degree(v) for degenerate graphs; counts multi-label parallel edges
  /// separately otherwise.
  uint32_t out_degree(VertexId v) const { return DirDegree(EdgeDir::kOut, v); }

  /// Labeled in-degree (== out_degree for undirected graphs).
  uint32_t in_degree(VertexId v) const { return DirDegree(EdgeDir::kIn, v); }

  /// Maximum degree over all vertices.
  uint32_t max_degree() const { return max_degree_; }

  /// Neighbor list N(v), ordered by (label(w), w) — NOT by id globally.
  /// Consumers needing id order must work per label slice (each slice is
  /// id-sorted) or sort a copy.
  std::span<const VertexId> neighbors(VertexId v) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Distinct labels appearing in N(v), ascending.
  std::span<const Label> NeighborLabels(VertexId v) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    return {slice_labels_.data() + slice_offsets_[v],
            slice_offsets_[v + 1] - slice_offsets_[v]};
  }

  /// Neighbors of v carrying label l, sorted ascending by id. Empty span
  /// when no neighbor carries l. O(log #distinct-labels-in-N(v)) lookup.
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Label l) const;

  /// The i-th label slice of N(v) (i indexes NeighborLabels(v)), sorted
  /// ascending by id. Walking i over [0, NeighborLabels(v).size()) visits
  /// the whole neighborhood grouped by label without any lookups.
  std::span<const VertexId> NeighborSlice(VertexId v, size_t i) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    const uint64_t entry = slice_offsets_[v] + i;
    RLQVO_DCHECK_LT(entry, slice_offsets_[v + 1]);
    const uint64_t begin = slice_begins_[entry];
    const uint64_t end = entry + 1 < slice_offsets_[v + 1]
                             ? slice_begins_[entry + 1]
                             : offsets_[v + 1];
    return {adj_.data() + begin, end - begin};
  }

  /// True iff edge (u, v) exists. O(log) within the smaller endpoint's
  /// label slice for the other endpoint's label. Skeleton semantics: for
  /// directed graphs this answers "adjacent in either direction via any
  /// edge label" (what connectivity/ordering heuristics need); use the
  /// (dir, elabel) overload for the exact directed test.
  bool HasEdge(VertexId u, VertexId v) const;

  /// \name Directed, edge-labeled adjacency.
  /// The constraint-aware mirror of the skeleton API above, serving
  /// matching on directed and/or multi-edge-label graphs. On degenerate
  /// graphs every call forwards to the identical skeleton slice (elabel
  /// must be 0 to match anything), so the two APIs cannot drift.
  /// @{

  /// Neighbors of v reachable over `dir` edges carrying edge label `elabel`
  /// whose vertex label is `vlabel`, sorted ascending by id. Empty span
  /// when no such neighbor exists. For undirected graphs kIn forwards to
  /// the symmetric kOut slices.
  std::span<const VertexId> NeighborsWith(VertexId v, EdgeDir dir,
                                          EdgeLabel elabel, Label vlabel) const;

  /// True iff the directed labeled edge exists: u -> v for kOut, v -> u for
  /// kIn, carrying `elabel`. Undirected graphs answer the symmetric test.
  bool HasEdge(VertexId u, VertexId v, EdgeDir dir, EdgeLabel elabel) const;

  /// One (edge-label, vertex-label) slice of a labeled neighbor list.
  struct LabeledSlice {
    EdgeLabel elabel;
    Label vlabel;
    std::span<const VertexId> ids;
  };

  /// Number of (elabel, vlabel) slices in v's `dir` neighbor list. Walking
  /// i over [0, NumLabeledSlices) via LabeledSliceAt visits the whole
  /// labeled neighborhood grouped by (elabel, vlabel) without lookups —
  /// the directed analogue of NeighborLabels + NeighborSlice.
  size_t NumLabeledSlices(VertexId v, EdgeDir dir) const;
  LabeledSlice LabeledSliceAt(VertexId v, EdgeDir dir, size_t i) const;

  /// Appends one (dir, elabel) entry per labeled edge between u and w, from
  /// u's perspective: kOut for u -> w, kIn for w -> u. Undirected labeled
  /// edges are reported once, as kOut. Entries are appended (not cleared)
  /// in deterministic (dir, elabel) order. The enumerator's backward-
  /// constraint build and the brute-force reference matcher consume this.
  void EdgesBetween(VertexId u, VertexId w,
                    std::vector<std::pair<EdgeDir, EdgeLabel>>* out) const;

  /// Invokes fn(u, v, elabel) once per labeled edge, in deterministic
  /// (u, elabel, label(v), v) order: every directed edge u -> v, or every
  /// undirected edge with the canonical endpoint order u < v. This is the
  /// canonical edge stream graph_io serialization and query fingerprinting
  /// traverse.
  template <typename Fn>
  void ForEachLabeledEdge(Fn&& fn) const {
    for (VertexId u = 0; u < num_vertices(); ++u) {
      const size_t slices = NumLabeledSlices(u, EdgeDir::kOut);
      for (size_t i = 0; i < slices; ++i) {
        const LabeledSlice s = LabeledSliceAt(u, EdgeDir::kOut, i);
        for (VertexId v : s.ids) {
          if (directed_ || u < v) fn(u, v, s.elabel);
        }
      }
    }
  }
  /// @}

  /// Number of data vertices carrying label l (0 for unseen labels).
  uint32_t LabelFrequency(Label l) const {
    return l < label_freq_.size() ? label_freq_[l] : 0;
  }

  /// Vertices carrying label l, ascending. Empty span for unseen labels.
  std::span<const VertexId> VerticesWithLabel(Label l) const;

  /// \brief |{v in V : d(v) > d}| — used by feature h(0)_u(4) of the paper.
  /// O(log n) via a sorted-degree index.
  uint32_t CountVerticesWithDegreeGreaterThan(uint32_t d) const;

  /// \brief Number of edges whose endpoint labels are {la, lb} (unordered).
  /// Used by QuickSI's infrequent-edge-first ordering. Computed as a sum of
  /// label-slice lengths over the less frequent label's vertices.
  uint64_t EdgeLabelFrequency(Label la, Label lb) const;

  /// \brief Neighbour-label signature of v: bit `l mod 64` is set iff some
  /// neighbour of v in the skeleton (any direction, any edge label) carries
  /// label l, so labels that differ by a multiple of 64 share a bit.
  /// Computed from the slice index on every call.
  ///
  /// The signature is monotone: if every label of N(u) occurs in N(v), then
  /// sig(u) & ~sig(v) == 0. A query vertex u whose signature is not covered
  /// by v's can therefore not pass NLF's count test at v, and skipping the
  /// pair is exact; folding labels >= 64 onto shared bits keeps that true.
  uint64_t NeighborLabelMask(VertexId v) const;

  /// \brief NeighborLabelMask(v) of every vertex v, for data graphs.
  ///
  /// The first call builds the array for the whole graph (8 bytes per
  /// vertex; thread-safe: concurrent first calls build it once) and later
  /// calls return it; copies made after the build share it. A graph that
  /// never has this called builds and allocates nothing, which is why the
  /// filters call NeighborLabelMask(u) on the query graph instead.
  std::span<const uint64_t> NeighborLabelMasks() const;

  /// \brief Approximate in-memory footprint in bytes (Table IV), including
  /// the neighbour-label signatures once they are built.
  size_t MemoryFootprintBytes() const;

  /// Human-readable one-line summary.
  std::string ToString() const;

 private:
  friend class GraphBuilder;

  std::vector<uint64_t> offsets_;   // size n+1
  std::vector<VertexId> adj_;       // size 2m, sorted by (label, id) per vertex
  std::vector<Label> labels_;       // size n
  uint32_t num_labels_ = 0;
  uint32_t max_degree_ = 0;

  // Indexes.
  std::vector<uint32_t> label_freq_;            // per label
  std::vector<uint64_t> label_offsets_;         // size |L|+1
  std::vector<VertexId> vertices_by_label_;     // size n
  std::vector<uint32_t> sorted_degrees_;        // size n, ascending

  // Per-vertex label-slice index over adj_: the distinct labels of N(v)
  // (ascending) and where each label's slice starts. The end of a slice is
  // the next slice's start, or offsets_[v+1] for the vertex's last slice.
  std::vector<uint64_t> slice_offsets_;  // size n+1, into the two below
  std::vector<Label> slice_labels_;      // one entry per (v, label) pair
  std::vector<uint64_t> slice_begins_;   // parallel: absolute start in adj_

  // ---- Directed, edge-labeled layer (empty for degenerate graphs) ----

  // One direction class of the labeled adjacency: a CSR whose per-vertex
  // neighbor entries are ordered by (elabel, label(w), w), plus a slice
  // index mapping (elabel, vlabel) pairs to id-sorted slices, mirroring the
  // skeleton's slice index.
  struct DirCsr {
    std::vector<uint64_t> offsets;        // size n+1
    std::vector<VertexId> adj;            // one entry per (w, elabel) edge end
    std::vector<uint64_t> slice_offsets;  // size n+1, into the three below
    std::vector<EdgeLabel> slice_elabels;  // one entry per (v, elabel, vlabel)
    std::vector<Label> slice_vlabels;      // parallel
    std::vector<uint64_t> slice_begins;    // parallel: absolute start in adj

    bool empty() const { return offsets.empty(); }
    // Index into the parallel slice arrays of (elabel, vlabel) in v's slice
    // list, or SIZE_MAX when v has no such slice. O(log #slices-of-v).
    size_t FindSlice(VertexId v, EdgeLabel elabel, Label vlabel) const;
    std::span<const VertexId> Slice(VertexId v, size_t entry) const;
  };

  // Resolves a direction class to its CSR: degenerate graphs have neither
  // (callers forward to the skeleton); undirected labeled graphs map both
  // directions to the symmetric out_ CSR.
  const DirCsr& DirAdj(EdgeDir dir) const {
    return (directed_ && dir == EdgeDir::kIn) ? in_ : out_;
  }

  static size_t DirCsrBytes(const DirCsr& csr);

  uint32_t DirDegree(EdgeDir dir, VertexId v) const {
    RLQVO_DCHECK_LT(v, num_vertices());
    if (out_.empty()) return degree(v);  // degenerate: one edge end per edge
    const DirCsr& csr = DirAdj(dir);
    return static_cast<uint32_t>(csr.offsets[v + 1] - csr.offsets[v]);
  }

  bool directed_ = false;
  uint32_t num_edge_labels_ = 1;
  uint64_t num_edges_ = 0;
  std::vector<uint64_t> edge_label_freq_;  // size num_edge_labels_
  DirCsr out_;
  DirCsr in_;  // directed graphs only

  // Holder of the lazily built neighbour-label signatures: null until the
  // first NeighborLabelMasks() call, then one array shared by every copy.
  // All holders share one process-wide mutex, so a graph that is never a
  // data graph pays only this shared_ptr; the lock is taken once per filter
  // call and per copy or move, never per candidate.
  class LabelMaskSlot {
   public:
    LabelMaskSlot() = default;
    LabelMaskSlot(const LabelMaskSlot& other) noexcept { *this = other; }
    LabelMaskSlot(LabelMaskSlot&& other) noexcept { *this = std::move(other); }
    LabelMaskSlot& operator=(const LabelMaskSlot& other) noexcept EXCLUDES(mu_);
    LabelMaskSlot& operator=(LabelMaskSlot&& other) noexcept EXCLUDES(mu_);

    std::span<const uint64_t> GetOrBuild(const Graph& g) const EXCLUDES(mu_);
    size_t bytes() const EXCLUDES(mu_);

   private:
    static Mutex mu_;
    mutable std::shared_ptr<const std::vector<uint64_t>> masks_ GUARDED_BY(mu_);
  };
  LabelMaskSlot label_masks_;
};

/// \brief Incremental builder for Graph.
///
/// Vertices are added first (fixing labels), then edges. Duplicate edges
/// (same endpoints, same edge label, same direction) are deduplicated;
/// self-loops are rejected. Call set_directed(true) *before* adding edges to
/// build a directed graph; by default edges are undirected and AddEdge(u, v)
/// carries edge label 0, which reproduces the degenerate case exactly.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes internal storage for n vertices.
  explicit GraphBuilder(uint32_t expected_vertices);

  /// Adds a vertex with the given label (at most kMaxLabel; Build CHECKs
  /// it); returns its id (sequential).
  VertexId AddVertex(Label label);

  /// Adds an edge carrying edge label 0 (undirected, or u -> v when
  /// set_directed(true)). Both endpoints must already exist and differ.
  /// Returns false (and ignores the edge) for self-loops or unknown vertices.
  bool AddEdge(VertexId u, VertexId v);

  /// Adds an edge carrying edge label `elabel` (u -> v when directed).
  /// Same endpoint rules as above. Parallel edges with distinct edge labels
  /// are kept; exact duplicates are deduplicated by Build().
  bool AddEdge(VertexId u, VertexId v, EdgeLabel elabel);

  /// Whether edges are directed. Must be set before the first AddEdge.
  void set_directed(bool directed) {
    RLQVO_DCHECK(edges_.empty());
    directed_ = directed;
  }
  bool directed() const { return directed_; }

  uint32_t num_vertices() const { return static_cast<uint32_t>(labels_.size()); }

  /// Finalises into an immutable Graph. The builder is left empty.
  Graph Build();

 private:
  struct PendingEdge {
    VertexId u;
    VertexId v;
    EdgeLabel elabel;
  };

  std::vector<Label> labels_;
  std::vector<std::vector<VertexId>> adjacency_;  // skeleton (symmetric)
  std::vector<PendingEdge> edges_;  // as added; source of the labeled CSRs
  bool directed_ = false;
  uint32_t max_edge_label_ = 0;
};

}  // namespace rlqvo
