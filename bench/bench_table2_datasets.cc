// Table II reproduction: dataset properties (|V|, |E|, |L|, avg degree) for
// the six emulated graphs, side by side with the paper's full-scale numbers.
#include "bench_util.h"
#include "graph/graph_stats.h"

using namespace rlqvo;
using namespace rlqvo::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintBanner("Table II: Datasets Properties (emulated vs paper)", opts);
  std::printf("%-10s | %10s %12s %6s %8s | %10s %12s %6s %8s\n", "Dataset",
              "|V|", "|E|", "|L|", "d", "paper|V|", "paper|E|", "|L|", "d");
  std::printf("%s\n", std::string(96, '-').c_str());
  for (const DatasetSpec& spec : AllDatasets()) {
    Graph g = MustOk(BuildDataset(spec, opts.scale), spec.name.c_str());
    GraphStats stats = ComputeGraphStats(g);
    std::printf("%-10s | %10u %12llu %6u %8.1f | %10u %12llu %6u %8.1f\n",
                spec.name.c_str(), stats.num_vertices,
                static_cast<unsigned long long>(stats.num_edges),
                stats.num_labels, stats.avg_degree, spec.paper_vertices,
                static_cast<unsigned long long>(spec.paper_edges),
                spec.paper_labels, spec.paper_avg_degree);
  }
  std::printf(
      "# Emulated graphs preserve category, label-set size/skew and degree "
      "profile at reduced scale; the raw graphs are not shipped "
      "(src/datasets/datasets.h).\n");
  return 0;
}
