#include "matching/spectrum.h"

#include <algorithm>
#include <utility>

#include "matching/optimal_order.h"

namespace rlqvo {

double OrderSpectrum::FractionWithinFactorOfOptimal(double factor) const {
  if (sorted_enumerations.empty()) return 0.0;
  RLQVO_CHECK_GE(factor, 1.0);
  const double threshold =
      static_cast<double>(min_enumerations) * factor + 1e-9;
  auto it = std::upper_bound(
      sorted_enumerations.begin(), sorted_enumerations.end(),
      static_cast<uint64_t>(threshold));
  return static_cast<double>(it - sorted_enumerations.begin()) /
         static_cast<double>(sorted_enumerations.size());
}

size_t OrderSpectrum::RankOf(uint64_t enumerations) const {
  return static_cast<size_t>(
      std::lower_bound(sorted_enumerations.begin(), sorted_enumerations.end(),
                       enumerations) -
      sorted_enumerations.begin());
}

Result<OrderSpectrum> ComputeOrderSpectrum(const Graph& query,
                                           const Graph& data,
                                           const CandidateSet& candidates,
                                           const EnumerateOptions& options) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("query graph is empty");
  }
  if (query.num_vertices() > 10) {
    return Status::InvalidArgument(
        "order spectrum is factorial; refusing queries above 10 vertices");
  }
  std::vector<uint64_t> counts;
  RLQVO_RETURN_NOT_OK(ForEachConnectedOrder(
      query, data, candidates, options,
      [&counts](const std::vector<VertexId>&, const EnumerateResult& run) {
        counts.push_back(run.num_enumerations);
      }));
  if (counts.empty()) {
    return Status::NotFound("no connected permutation (disconnected query)");
  }

  OrderSpectrum spectrum;
  spectrum.sorted_enumerations = std::move(counts);
  std::sort(spectrum.sorted_enumerations.begin(),
            spectrum.sorted_enumerations.end());
  spectrum.num_orders = spectrum.sorted_enumerations.size();
  spectrum.min_enumerations = spectrum.sorted_enumerations.front();
  spectrum.max_enumerations = spectrum.sorted_enumerations.back();
  double total = 0.0;
  for (uint64_t c : spectrum.sorted_enumerations) {
    total += static_cast<double>(c);
  }
  spectrum.mean_enumerations =
      total / static_cast<double>(spectrum.num_orders);
  spectrum.median_enumerations = static_cast<double>(
      spectrum.sorted_enumerations[spectrum.num_orders / 2]);
  return spectrum;
}

}  // namespace rlqvo
