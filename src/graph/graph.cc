#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <tuple>
#include <utility>

namespace rlqvo {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the smaller endpoint's slice for the other endpoint's label —
  // two nested binary searches over strictly smaller ranges than the seed's
  // whole-neighborhood search.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto slice = NeighborsWithLabel(u, label(v));
  return std::binary_search(slice.begin(), slice.end(), v);
}

std::span<const VertexId> Graph::NeighborsWithLabel(VertexId v, Label l) const {
  RLQVO_DCHECK_LT(v, num_vertices());
  const Label* begin = slice_labels_.data() + slice_offsets_[v];
  const Label* end = slice_labels_.data() + slice_offsets_[v + 1];
  const Label* it = std::lower_bound(begin, end, l);
  if (it == end || *it != l) return {};
  return NeighborSlice(v, static_cast<size_t>(it - begin));
}

size_t Graph::DirCsr::FindSlice(VertexId v, EdgeLabel elabel,
                                Label vlabel) const {
  const uint64_t begin = slice_offsets[v];
  const uint64_t end = slice_offsets[v + 1];
  uint64_t lo = begin, hi = end;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (std::make_pair(slice_elabels[mid], slice_vlabels[mid]) <
        std::make_pair(elabel, vlabel)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == end || slice_elabels[lo] != elabel || slice_vlabels[lo] != vlabel) {
    return SIZE_MAX;
  }
  return static_cast<size_t>(lo);
}

std::span<const VertexId> Graph::DirCsr::Slice(VertexId v, size_t entry) const {
  const uint64_t begin = slice_begins[entry];
  const uint64_t end = entry + 1 < slice_offsets[v + 1] ? slice_begins[entry + 1]
                                                        : offsets[v + 1];
  return {adj.data() + begin, end - begin};
}

std::span<const VertexId> Graph::NeighborsWith(VertexId v, EdgeDir dir,
                                               EdgeLabel elabel,
                                               Label vlabel) const {
  RLQVO_DCHECK_LT(v, num_vertices());
  if (out_.empty()) {  // degenerate: forward to the identical skeleton slice
    if (elabel != 0) return {};
    return NeighborsWithLabel(v, vlabel);
  }
  const DirCsr& csr = DirAdj(dir);
  const size_t entry = csr.FindSlice(v, elabel, vlabel);
  if (entry == SIZE_MAX) return {};
  return csr.Slice(v, entry);
}

bool Graph::HasEdge(VertexId u, VertexId v, EdgeDir dir, EdgeLabel elabel) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  if (out_.empty()) return elabel == 0 && HasEdge(u, v);
  // u -[dir]-> v is v -[reverse]-> u: anchor the search at the endpoint with
  // the shorter labeled neighbor list.
  if (DirDegree(dir, u) > DirDegree(Reverse(dir), v)) {
    std::swap(u, v);
    dir = Reverse(dir);
  }
  auto slice = NeighborsWith(u, dir, elabel, label(v));
  return std::binary_search(slice.begin(), slice.end(), v);
}

size_t Graph::NumLabeledSlices(VertexId v, EdgeDir dir) const {
  RLQVO_DCHECK_LT(v, num_vertices());
  if (out_.empty()) return NeighborLabels(v).size();
  const DirCsr& csr = DirAdj(dir);
  return static_cast<size_t>(csr.slice_offsets[v + 1] - csr.slice_offsets[v]);
}

Graph::LabeledSlice Graph::LabeledSliceAt(VertexId v, EdgeDir dir,
                                          size_t i) const {
  RLQVO_DCHECK_LT(v, num_vertices());
  if (out_.empty()) return {0, NeighborLabels(v)[i], NeighborSlice(v, i)};
  const DirCsr& csr = DirAdj(dir);
  const uint64_t entry = csr.slice_offsets[v] + i;
  RLQVO_DCHECK_LT(entry, csr.slice_offsets[v + 1]);
  return {csr.slice_elabels[entry], csr.slice_vlabels[entry],
          csr.Slice(v, static_cast<size_t>(entry))};
}

void Graph::EdgesBetween(VertexId u, VertexId w,
                         std::vector<std::pair<EdgeDir, EdgeLabel>>* out) const {
  if (out_.empty()) {
    if (HasEdge(u, w)) out->emplace_back(EdgeDir::kOut, EdgeLabel{0});
    return;
  }
  for (EdgeLabel e = 0; e < num_edge_labels_; ++e) {
    if (HasEdge(u, w, EdgeDir::kOut, e)) out->emplace_back(EdgeDir::kOut, e);
  }
  if (!directed_) return;  // undirected: every edge already reported as kOut
  for (EdgeLabel e = 0; e < num_edge_labels_; ++e) {
    if (HasEdge(u, w, EdgeDir::kIn, e)) out->emplace_back(EdgeDir::kIn, e);
  }
}

std::span<const VertexId> Graph::VerticesWithLabel(Label l) const {
  if (l >= num_labels_) return {};
  return {vertices_by_label_.data() + label_offsets_[l],
          label_offsets_[l + 1] - label_offsets_[l]};
}

uint32_t Graph::CountVerticesWithDegreeGreaterThan(uint32_t d) const {
  auto it = std::upper_bound(sorted_degrees_.begin(), sorted_degrees_.end(), d);
  return static_cast<uint32_t>(sorted_degrees_.end() - it);
}

uint64_t Graph::EdgeLabelFrequency(Label la, Label lb) const {
  // Sum the lb-slice lengths over the less frequent label's vertices — one
  // slice lookup per vertex instead of a full neighborhood scan.
  if (LabelFrequency(la) > LabelFrequency(lb)) std::swap(la, lb);
  uint64_t count = 0;
  for (VertexId v : VerticesWithLabel(la)) {
    count += NeighborsWithLabel(v, lb).size();
  }
  // Each same-label edge was counted from both endpoints.
  if (la == lb) count /= 2;
  return count;
}

size_t Graph::MemoryFootprintBytes() const {
  return offsets_.size() * sizeof(uint64_t) + adj_.size() * sizeof(VertexId) +
         labels_.size() * sizeof(Label) +
         label_freq_.size() * sizeof(uint32_t) +
         label_offsets_.size() * sizeof(uint64_t) +
         vertices_by_label_.size() * sizeof(VertexId) +
         sorted_degrees_.size() * sizeof(uint32_t) +
         slice_offsets_.size() * sizeof(uint64_t) +
         slice_labels_.size() * sizeof(Label) +
         slice_begins_.size() * sizeof(uint64_t) + DirCsrBytes(out_) +
         DirCsrBytes(in_) + edge_label_freq_.size() * sizeof(uint64_t);
}

size_t Graph::DirCsrBytes(const DirCsr& csr) {
  return csr.offsets.size() * sizeof(uint64_t) +
         csr.adj.size() * sizeof(VertexId) +
         csr.slice_offsets.size() * sizeof(uint64_t) +
         csr.slice_elabels.size() * sizeof(EdgeLabel) +
         csr.slice_vlabels.size() * sizeof(Label) +
         csr.slice_begins.size() * sizeof(uint64_t);
}

std::string Graph::ToString() const {
  char buf[160];
  if (degenerate()) {
    std::snprintf(buf, sizeof(buf),
                  "Graph(|V|=%u, |E|=%llu, |L|=%u, avg_d=%.2f)", num_vertices(),
                  static_cast<unsigned long long>(num_edges()), num_labels(),
                  num_vertices() ? 2.0 * static_cast<double>(num_edges()) /
                                       num_vertices()
                                 : 0.0);
  } else {
    std::snprintf(
        buf, sizeof(buf),
        "Graph(|V|=%u, |E|=%llu, |L|=%u, |Sigma|=%u, %s, avg_d=%.2f)",
        num_vertices(), static_cast<unsigned long long>(num_edges()),
        num_labels(), num_edge_labels(),
        directed_ ? "directed" : "undirected",
        num_vertices() ? (directed_ ? 1.0 : 2.0) *
                             static_cast<double>(num_edges()) / num_vertices()
                       : 0.0);
  }
  return buf;
}

GraphBuilder::GraphBuilder(uint32_t expected_vertices) {
  labels_.reserve(expected_vertices);
  adjacency_.reserve(expected_vertices);
}

VertexId GraphBuilder::AddVertex(Label label) {
  labels_.push_back(label);
  adjacency_.emplace_back();
  return static_cast<VertexId>(labels_.size() - 1);
}

bool GraphBuilder::AddEdge(VertexId u, VertexId v) {
  return AddEdge(u, v, EdgeLabel{0});
}

bool GraphBuilder::AddEdge(VertexId u, VertexId v, EdgeLabel elabel) {
  if (u == v) return false;
  if (u >= labels_.size() || v >= labels_.size()) return false;
  // The symmetric skeleton sees every edge regardless of direction/label.
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  edges_.push_back({u, v, elabel});
  max_edge_label_ = std::max(max_edge_label_, elabel);
  return true;
}

Graph GraphBuilder::Build() {
  Graph g;
  const uint32_t n = num_vertices();
  g.labels_ = std::move(labels_);
  g.offsets_.assign(n + 1, 0);

  // Sort each neighbor list by (label, id) — equal ids carry equal labels,
  // so duplicates stay adjacent and unique() still dedups — then flatten to
  // CSR. The label-major order makes every per-label slice contiguous and
  // id-sorted, which the slice index below exposes.
  uint64_t total = 0;
  for (uint32_t v = 0; v < n; ++v) {
    auto& nbrs = adjacency_[v];
    std::sort(nbrs.begin(), nbrs.end(), [&g](VertexId a, VertexId b) {
      return std::make_pair(g.labels_[a], a) < std::make_pair(g.labels_[b], b);
    });
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    total += nbrs.size();
  }
  g.adj_.reserve(total);
  for (uint32_t v = 0; v < n; ++v) {
    g.offsets_[v] = g.adj_.size();
    g.adj_.insert(g.adj_.end(), adjacency_[v].begin(), adjacency_[v].end());
  }
  g.offsets_[n] = g.adj_.size();

  // Label-slice index: record each (vertex, distinct neighbor label) run.
  g.slice_offsets_.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    g.slice_offsets_[v] = g.slice_labels_.size();
    for (uint64_t i = g.offsets_[v]; i < g.offsets_[v + 1]; ++i) {
      const Label l = g.labels_[g.adj_[i]];
      if (i == g.offsets_[v] || l != g.slice_labels_.back()) {
        g.slice_labels_.push_back(l);
        g.slice_begins_.push_back(i);
      }
    }
  }
  g.slice_offsets_[n] = g.slice_labels_.size();

  g.num_labels_ = 0;
  for (Label l : g.labels_) g.num_labels_ = std::max(g.num_labels_, l + 1);

  // Label index.
  g.label_freq_.assign(g.num_labels_, 0);
  for (Label l : g.labels_) ++g.label_freq_[l];
  g.label_offsets_.assign(g.num_labels_ + 1, 0);
  for (uint32_t l = 0; l < g.num_labels_; ++l) {
    g.label_offsets_[l + 1] = g.label_offsets_[l] + g.label_freq_[l];
  }
  g.vertices_by_label_.resize(n);
  std::vector<uint64_t> cursor(g.label_offsets_.begin(),
                               g.label_offsets_.end() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    g.vertices_by_label_[cursor[g.labels_[v]]++] = v;
  }

  // Degree index.
  g.sorted_degrees_.resize(n);
  g.max_degree_ = 0;
  for (uint32_t v = 0; v < n; ++v) {
    g.sorted_degrees_[v] =
        static_cast<uint32_t>(g.offsets_[v + 1] - g.offsets_[v]);
    g.max_degree_ = std::max(g.max_degree_, g.sorted_degrees_[v]);
  }
  std::sort(g.sorted_degrees_.begin(), g.sorted_degrees_.end());

  // ---- Directed, edge-labeled layer ----
  // The degenerate case (undirected, single edge label) builds nothing here:
  // the labeled API forwards to the skeleton slices above, keeping every
  // pre-existing workload bit-identical. Otherwise build one labeled CSR per
  // direction class, ordered by (elabel, label(w), w) per vertex.
  g.directed_ = directed_;
  g.num_edge_labels_ = max_edge_label_ + 1;
  if (g.degenerate()) {
    g.num_edges_ = g.adj_.size() / 2;
    g.edge_label_freq_.assign(1, g.num_edges_);
  } else {
    using LabeledEnd = std::pair<EdgeLabel, VertexId>;
    std::vector<std::vector<LabeledEnd>> out_lists(n);
    std::vector<std::vector<LabeledEnd>> in_lists(directed_ ? n : 0);
    for (const PendingEdge& e : edges_) {
      out_lists[e.u].emplace_back(e.elabel, e.v);
      (directed_ ? in_lists : out_lists)[e.v].emplace_back(e.elabel, e.u);
    }
    auto build_dir = [&g, n](std::vector<std::vector<LabeledEnd>>& lists,
                             Graph::DirCsr& csr) {
      uint64_t total = 0;
      for (uint32_t v = 0; v < n; ++v) {
        auto& ends = lists[v];
        std::sort(ends.begin(), ends.end(),
                  [&g](const LabeledEnd& a, const LabeledEnd& b) {
                    return std::make_tuple(a.first, g.labels_[a.second],
                                           a.second) <
                           std::make_tuple(b.first, g.labels_[b.second],
                                           b.second);
                  });
        ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
        total += ends.size();
      }
      csr.offsets.assign(n + 1, 0);
      csr.adj.reserve(total);
      for (uint32_t v = 0; v < n; ++v) {
        csr.offsets[v] = csr.adj.size();
        for (const LabeledEnd& e : lists[v]) csr.adj.push_back(e.second);
      }
      csr.offsets[n] = csr.adj.size();
      // (elabel, vlabel)-slice index, mirroring the skeleton's label slices.
      csr.slice_offsets.assign(n + 1, 0);
      for (uint32_t v = 0; v < n; ++v) {
        csr.slice_offsets[v] = csr.slice_elabels.size();
        const auto& ends = lists[v];
        for (size_t i = 0; i < ends.size(); ++i) {
          const EdgeLabel el = ends[i].first;
          const Label vl = g.labels_[ends[i].second];
          if (i == 0 || el != csr.slice_elabels.back() ||
              vl != csr.slice_vlabels.back()) {
            csr.slice_elabels.push_back(el);
            csr.slice_vlabels.push_back(vl);
            csr.slice_begins.push_back(csr.offsets[v] + i);
          }
        }
      }
      csr.slice_offsets[n] = csr.slice_elabels.size();
    };
    build_dir(out_lists, g.out_);
    if (directed_) build_dir(in_lists, g.in_);

    g.num_edges_ = directed_ ? g.out_.adj.size() : g.out_.adj.size() / 2;
    g.edge_label_freq_.assign(g.num_edge_labels_, 0);
    for (uint32_t v = 0; v < n; ++v) {
      for (uint64_t s = g.out_.slice_offsets[v];
           s < g.out_.slice_offsets[v + 1]; ++s) {
        const uint64_t begin = g.out_.slice_begins[s];
        const uint64_t end = s + 1 < g.out_.slice_offsets[v + 1]
                                 ? g.out_.slice_begins[s + 1]
                                 : g.out_.offsets[v + 1];
        g.edge_label_freq_[g.out_.slice_elabels[s]] += end - begin;
      }
    }
    if (!directed_) {
      // Undirected labeled edges appear once per endpoint in the out CSR.
      for (uint64_t& f : g.edge_label_freq_) f /= 2;
    }
  }

  labels_.clear();
  adjacency_.clear();
  edges_.clear();
  directed_ = false;
  max_edge_label_ = 0;
  return g;
}

}  // namespace rlqvo
