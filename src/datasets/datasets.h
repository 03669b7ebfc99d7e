#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace rlqvo {

/// \brief Generator family used to emulate a dataset's structure.
enum class GraphFamily { kErdosRenyi, kPowerLaw, kBarabasiAlbert };

/// \brief Specification of one emulated benchmark dataset.
///
/// The paper evaluates on six real-life graphs (Table II). We do not ship the
/// raw datasets, so that every workload builds offline and at a size a test
/// or bench can afford. Instead each spec parameterises a synthetic
/// generator that reproduces the dataset's category, label-set size, label
/// skew and degree distribution at a configurable scale: the properties that
/// size candidate sets, and so what a matching order costs. Real datasets in
/// the Sun & Luo text format can be loaded with LoadGraphFromFile and used
/// interchangeably.
struct DatasetSpec {
  std::string name;       ///< canonical lowercase name, e.g. "citeseer"
  std::string category;   ///< e.g. "citation network"
  GraphFamily family = GraphFamily::kErdosRenyi;
  uint32_t num_vertices = 0;  ///< emulated size at scale 1.0
  double avg_degree = 0.0;    ///< 2|E|/|V| target
  uint32_t num_labels = 0;
  double label_zipf = 0.8;       ///< label-frequency skew
  double power_law_gamma = 2.3;  ///< for kPowerLaw
  uint32_t ba_edges = 2;         ///< for kBarabasiAlbert
  std::vector<uint32_t> query_sizes;  ///< Q_i sets evaluated by the paper
  uint32_t default_query_size = 0;    ///< the paper's default query set
  uint64_t seed = 1;

  /// Full-scale properties reported in the paper's Table II, kept for
  /// documentation and for the Table II bench.
  uint32_t paper_vertices = 0;
  uint64_t paper_edges = 0;
  uint32_t paper_labels = 0;
  double paper_avg_degree = 0.0;
};

/// \brief All six emulated datasets, in the paper's Table II order.
const std::vector<DatasetSpec>& AllDatasets();

/// \brief Looks a dataset up by (case-sensitive lowercase) name.
Result<DatasetSpec> FindDataset(const std::string& name);

/// \brief Materialises the data graph for a spec.
///
/// \param scale multiplies the vertex count (edges scale along); 1.0 gives
///        the spec's default emulated size. Must be positive.
Result<Graph> BuildDataset(const DatasetSpec& spec, double scale = 1.0);

}  // namespace rlqvo
