// Compiled query plans — the store-v3 utility blocks.
//
// The paper's offline/online split (Sections 3.1.3, 4.1) puts the
// expensive work — mining S_q, fetching R_q′ — into the Shortcuts-style
// preprocessing stage so OptSelect stays cheap online. A QueryPlan
// pushes that split to its limit: since the store builder runs against
// the same immutable retrieval stack the serving node uses, R_q, the
// thresholded utility matrix Ũ, the λ-independent overall scores
// Σ P(q′|q)·Ũ, and the probability-sorted specialization order are all
// known at build time. Compiling them into the store entry turns the
// serving hot path into pure selection over flat, zero-copy blocks —
// no retrieval, no snippet extraction, no O(n·m·|R_q′|) cosine sums,
// no per-request allocation.
//
// A plan is *derived data*: it is valid only for the mined content it
// was compiled from and for the (num_candidates, threshold_c) pair the
// serving node runs with. DiversificationStore::Put drops plans that
// disagree with their entry, and ServingNode falls back to on-the-fly
// computation when the plan is absent or parameter-incompatible — so
// a store built with plans off keeps serving correctly, just without
// the shortcut.

#ifndef OPTSELECT_STORE_QUERY_PLAN_H_
#define OPTSELECT_STORE_QUERY_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/select_view.h"
#include "util/types.h"

namespace optselect {
namespace store {

/// Plan-compile parameters. Must match the serving node's pipeline
/// params for the plan to be used (Response::plan_served); on
/// mismatch the node silently recomputes per request.
struct PlanCompileOptions {
  /// |R_q| retrieval depth the plan's candidate block is built at.
  size_t num_candidates = 200;
  /// Utility threshold c baked into the compiled Ũ values.
  double threshold_c = 0.0;
};

/// The precomputed selection inputs for one stored ambiguous query.
/// All blocks are flat and sized by n = |R_q| candidates and
/// m = |S_q| specializations (parallel to the entry's specializations).
struct QueryPlan {
  /// The PlanCompileOptions this plan was compiled under.
  uint32_t num_candidates_requested = 0;
  double threshold_c = 0.0;

  /// [n] candidate document ids, R_q rank order.
  std::vector<DocId> docs;
  /// [n] normalized relevance P(d|q) (retrieval score / max score).
  std::vector<double> relevance;
  /// [m] specialization probabilities P(q′|q) (copied from the entry —
  /// Put uses the copy to detect stale plans).
  std::vector<double> probability;
  /// [m] specialization indices sorted by probability descending
  /// (ties: index ascending) — Section 3.1.3's "k most probable" order.
  std::vector<uint32_t> spec_order;
  /// [n·m] row-major thresholded utilities Ũ(d_i|R_{q′_j}).
  std::vector<double> utilities;
  /// [n] λ-independent overall scores Σ_j P(q′_j|q)·Ũ(d_i|R_{q′_j}).
  std::vector<double> weighted;

  bool empty() const { return docs.empty(); }
  size_t num_candidates() const { return docs.size(); }
  size_t num_specializations() const { return probability.size(); }

  /// True when the plan can serve a request running with these pipeline
  /// parameters (bit-identical to computing on the fly).
  bool CompatibleWith(size_t num_candidates, double threshold_c) const;

  /// Internal block-size consistency (docs/relevance/weighted all [n],
  /// spec_order [m], utilities [n·m]). Checked by Put; an
  /// inconsistent plan is dropped, never served.
  bool SizesConsistent() const;

  /// Zero-copy selection view over the plan's blocks. The plan must
  /// outlive the view. No candidate vectors (view.candidates == null).
  core::DiversificationView View() const;
};

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_QUERY_PLAN_H_
