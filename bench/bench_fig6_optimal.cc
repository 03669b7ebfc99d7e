// Figure 6 reproduction: enumeration-time spectrum against the optimal
// matching order (exhaustive permutation search) on Citeseer, Yeast and
// DBLP. Paper shape: RL-QVO sits much closer to Opt than Hybrid does.
// Fails fatally when a query's Opt #enum exceeds RL-QVO's or Hybrid's.
#include <utility>

#include "bench_util.h"
#include "matching/optimal_order.h"

using namespace rlqvo;
using namespace rlqvo::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  // The spectrum analysis finds ALL matches (paper Sec IV-C); the optimal
  // search is factorial, so the default uses Q6 (Q8 with --full, as in the
  // paper) and a handful of queries.
  const uint32_t query_size = opts.full ? 8 : 6;
  const uint32_t num_queries = opts.full ? 15 : 6;
  PrintBanner("Fig 6: Enumeration #enum spectrum vs optimal order", opts);
  std::printf("# query size Q%u, %u queries per dataset, find-ALL\n",
              query_size, num_queries);

  Enumerator enumerator;
  for (const std::string dataset : {"citeseer", "yeast", "dblp"}) {
    BenchOptions local = opts;
    local.queries_per_set = num_queries * 2;  // half goes to training
    Workload workload = MustOk(
        BuildBenchWorkload(dataset, local, {query_size}), dataset.c_str());
    RLQVOModel model =
        MustOk(TrainForBench(workload, query_size, local), "train");
    auto rlqvo_ordering = model.MakeOrdering();
    RIOrdering hybrid_ordering;  // Hybrid = GQL filter + RI order
    GQLFilter filter;

    // Per-order budget inside the factorial search is capped tightly so a
    // single pathological permutation cannot stall the sweep; the final
    // RL-QVO/Hybrid comparison runs use the full per-query limit.
    EnumerateOptions search_opts;
    search_opts.match_limit = 0;
    search_opts.time_limit_seconds = std::min(0.25, opts.time_limit);
    EnumerateOptions eopts;
    eopts.match_limit = 0;
    eopts.time_limit_seconds = opts.time_limit;

    std::printf("\n[%s]  %6s  %12s %12s %12s %10s\n", dataset.c_str(), "query",
                "Opt#enum", "RLQVO#enum", "Hybrid#enum", "#orders");
    double sum_ratio_rlqvo = 0.0, sum_ratio_hybrid = 0.0;
    int counted = 0;
    const auto& eval = workload.eval_queries.at(query_size);
    for (size_t i = 0; i < eval.size(); ++i) {
      const Graph& q = eval[i];
      CandidateSet cs =
          MustOk(filter.Filter(q, workload.data), "filter");
      auto optimal =
          MustOk(FindOptimalOrder(q, workload.data, cs, search_opts),
                 "optimal");

      OrderingContext ctx;
      ctx.query = &q;
      ctx.data = &workload.data;
      ctx.candidates = &cs;
      auto rlqvo_order = MustOk(rlqvo_ordering->MakeOrder(ctx), "rlqvo order");
      auto hybrid_order =
          MustOk(hybrid_ordering.MakeOrder(ctx), "hybrid order");
      auto rlqvo_run = MustOk(
          enumerator.Run(q, workload.data, cs, rlqvo_order, eopts), "run");
      auto hybrid_run = MustOk(
          enumerator.Run(q, workload.data, cs, hybrid_order, eopts), "run");

      // The walk evaluates every connected order, RL-QVO's and RI's
      // included, and its per-order deadline can only lower Opt's count.
      // So Opt above a method whose final run finished means the walk or
      // the enumerator is wrong; a method whose final run timed out proves
      // nothing and is skipped.
      for (const auto& [method, run] : {std::pair{"RL-QVO", &rlqvo_run},
                                         std::pair{"Hybrid", &hybrid_run}}) {
        if (!run->timed_out &&
            optimal.num_enumerations > run->num_enumerations) {
          std::fprintf(stderr,
                       "FATAL: %s q%zu: Opt #enum %llu exceeds %s's %llu\n",
                       dataset.c_str(), i,
                       static_cast<unsigned long long>(
                           optimal.num_enumerations),
                       method,
                       static_cast<unsigned long long>(run->num_enumerations));
          return 1;
        }
      }
      std::printf("        q%-5zu  %12llu %12llu %12llu %10llu\n", i,
                  static_cast<unsigned long long>(optimal.num_enumerations),
                  static_cast<unsigned long long>(rlqvo_run.num_enumerations),
                  static_cast<unsigned long long>(hybrid_run.num_enumerations),
                  static_cast<unsigned long long>(optimal.orders_evaluated));
      const double denom =
          static_cast<double>(optimal.num_enumerations) + 1.0;
      sum_ratio_rlqvo +=
          (static_cast<double>(rlqvo_run.num_enumerations) + 1.0) / denom;
      sum_ratio_hybrid +=
          (static_cast<double>(hybrid_run.num_enumerations) + 1.0) / denom;
      ++counted;
    }
    std::printf("        mean #enum ratio vs Opt:  RL-QVO %.2fx, Hybrid %.2fx\n",
                sum_ratio_rlqvo / counted, sum_ratio_hybrid / counted);
  }
  std::printf(
      "\n# Expected shape (paper): RL-QVO's ratio to Opt is well below "
      "Hybrid's.\n");
  return 0;
}
