#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "matching/candidate_set.h"

namespace rlqvo {

/// \brief Phase-1 interface of the generic framework (Algorithm 1): generate
/// complete candidate vertex sets for every query vertex.
///
/// All implementations preserve completeness (Definition II.2): no data
/// vertex that participates in a genuine match is ever pruned. This property
/// is verified by the test suite against brute-force matching.
class CandidateFilter {
 public:
  virtual ~CandidateFilter() = default;

  /// Display name used by the benchmark harness, e.g. "LDF".
  virtual std::string name() const = 0;

  /// Computes C(u) for every u in V(q).
  virtual Result<CandidateSet> Filter(const Graph& query,
                                      const Graph& data) const = 0;
};

/// \brief Label-and-Degree Filter: C(u) = {v : L(v)=L(u), d(v) >= d(u)}.
///
/// The weakest (and cheapest) complete filter; used as the stand-in for
/// "no candidate generation" methods such as QuickSI, which perform the
/// equivalent label/degree checks during enumeration.
class LDFFilter : public CandidateFilter {
 public:
  std::string name() const override { return "LDF"; }
  Result<CandidateSet> Filter(const Graph& query,
                              const Graph& data) const override;
};

/// \brief Neighborhood Label Frequency filter: LDF plus, for each label l,
/// u must not have more l-labeled neighbors than v does.
///
/// Before that count test, a (u, v) pair is screened with neighbour-label
/// signatures (Graph::NeighborLabelMasks): v is skipped when u's signature
/// has a bit v's lacks. The screen is exact, since a dominated histogram
/// implies a covered signature, so candidate sets equal the count test's.
/// The data graph builds its signatures on its first use here and keeps
/// them; u's is computed (Graph::NeighborLabelMask), so query graphs build
/// nothing.
///
/// When either graph is directed or carries more than one edge label, v
/// must also dominate u per (direction, edge label, vertex label) slice and
/// in labeled out- and in-degree. u's slice sizes are listed once per query
/// vertex, and these labeled tests run before the skeleton count test
/// because they reject more pairs; a candidate passes every test either
/// way. GQLFilter and DagDpFilter start from these candidates and share the
/// tests.
class NLFFilter : public CandidateFilter {
 public:
  std::string name() const override { return "NLF"; }
  Result<CandidateSet> Filter(const Graph& query,
                              const Graph& data) const override;
};

/// \brief GraphQL's filter: NLF-style local pruning via neighborhood label
/// profiles, then global refinement that keeps v in C(u) only if the
/// bipartite graph between N(u) and N(v) (edge (u',v') iff v' in C(u')) has
/// a semi-perfect matching covering all of N(u). Refinement runs rounds
/// over every query vertex until a round removes nothing or
/// `max_refinement_rounds` rounds have run.
///
/// Two shortcuts leave every candidate set as the plain refinement's:
/// - C(u') holds only label(u') vertices, so the matching is searched label
///   by label: each label run of N(u) only against N(v)'s slice of that
///   label, and a label N(v) lacks rejects v at once.
/// - From round 2 on, u is re-checked only if some neighbour of u lost a
///   candidate after u's last check; otherwise every bipartite graph of u
///   is unchanged and all of C(u) would pass again.
///
/// This is the filtering method Hybrid (Sun & Luo's recommended combination)
/// uses, and the one RL-QVO inherits.
class GQLFilter : public CandidateFilter {
 public:
  explicit GQLFilter(int max_refinement_rounds = 3)
      : max_refinement_rounds_(max_refinement_rounds) {}
  std::string name() const override { return "GQL"; }
  Result<CandidateSet> Filter(const Graph& query,
                              const Graph& data) const override;

 private:
  int max_refinement_rounds_;
};

/// \brief DAG dynamic-programming filter in the style of CFL / DP-iso / VEQ:
/// builds a BFS DAG of the query rooted at the vertex minimising
/// |C_NLF(u)|/d(u), then alternately sweeps the DAG top-down and bottom-up,
/// kNumSweeps times each, keeping v in C(u) only if every DAG parent
/// (resp. child) u' of u has a candidate adjacent to v. Used as the
/// candidate generator for VEQ.
class DagDpFilter : public CandidateFilter {
 public:
  static constexpr int kNumSweeps = 3;

  std::string name() const override { return "DAG-DP"; }
  Result<CandidateSet> Filter(const Graph& query,
                              const Graph& data) const override;
};

/// \brief Builds a filter by name: "LDF", "NLF", "GQL" or "DAG-DP".
Result<std::shared_ptr<CandidateFilter>> MakeFilter(const std::string& name);

}  // namespace rlqvo
