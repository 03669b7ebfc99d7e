#pragma once

#include <string>

#include "common/result.h"
#include "graph/graph.h"

namespace rlqvo {

/// \brief Parses a graph in the Sun & Luo benchmark text format, extended
/// with optional direction and edge labels:
///
///     t <num_vertices> <num_edges> [directed]
///     v <id> <label> <degree>
///     ...
///     e <u> <v> [edge_label]
///     ...
///
/// The declared degree field is ignored (recomputed); vertices must be
/// declared before edges reference them, and ids must be dense in [0, n).
/// Lines starting with '#' or '%' are skipped as comments. A trailing
/// `directed` on the header makes every edge a directed u -> v arc; an
/// omitted edge label means label 0, so every pre-existing undirected file
/// loads unchanged as the degenerate single-edge-label case. A vertex label
/// above kMaxLabel (2^32-2) or an edge label above 2^32-1 is rejected with
/// InvalidArgument.
Result<Graph> ParseGraphText(const std::string& text);

/// \brief Loads a graph from a file in the format of ParseGraphText.
Result<Graph> LoadGraphFromFile(const std::string& path);

/// \brief Serialises a graph to the Sun & Luo text format. Degenerate
/// graphs serialize byte-identically to the pre-directed writer (no
/// `directed` marker, no edge-label column); other graphs carry both
/// extensions and round-trip through ParseGraphText.
std::string GraphToText(const Graph& g);

/// \brief Writes a graph to a file in the Sun & Luo text format.
Status SaveGraphToFile(const Graph& g, const std::string& path);

/// \brief Serialises a graph to the versioned little-endian binary format:
///
///     magic "RLQV" | u8 version | payload
///
/// Version 1 (undirected, vertex-labeled — what a pre-directed writer would
/// emit): u32 n, u64 m, n x u32 vertex labels, m x (u32 u, u32 v).
/// Version 2 (directed / edge-labeled): u8 flags (bit 0 = directed), u32
/// num_edge_labels, u32 n, u64 m, n x u32 vertex labels, m x (u32 u, u32 v,
/// u32 edge_label). The writer picks version 1 for degenerate graphs, so
/// old readers keep working on every classic workload.
std::string GraphToBinary(const Graph& g);

/// \brief Parses the binary format of GraphToBinary. Version-1 payloads
/// load as degenerate single-edge-label graphs; corrupt magic/version,
/// truncated payloads (checked against n before anything is reserved for
/// the vertices), vertex labels above kMaxLabel, out-of-range endpoints,
/// self-loops, out-of-range edge labels and malformed flags are all
/// rejected with InvalidArgument.
Result<Graph> ParseGraphBinary(const std::string& bytes);

/// \brief File wrappers around GraphToBinary / ParseGraphBinary.
Status SaveGraphBinaryToFile(const Graph& g, const std::string& path);
Result<Graph> LoadGraphBinaryFromFile(const std::string& path);

}  // namespace rlqvo
