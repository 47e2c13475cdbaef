// Query-Flow Graph (Boldi et al., CIKM'08) — the session model the paper
// uses to split user streams into logical sessions ("It consists of
// building a Markov Chain model of the query log and subsequently finding
// paths in the graph which are more likely to be followed by random
// surfers", Section 3).
//
// Nodes are distinct query strings; a directed edge (q, q′) aggregates the
// times q′ was submitted right after q by the same user within a time
// window. The chaining probability combines the observed transition
// frequency with a lexical-affinity prior (term overlap), mirroring the
// feature set of the original QFG classifier in a closed form.

#ifndef OPTSELECT_QUERYLOG_QUERY_FLOW_GRAPH_H_
#define OPTSELECT_QUERYLOG_QUERY_FLOW_GRAPH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "querylog/query_log.h"

namespace optselect {
namespace querylog {

using QueryNodeId = uint32_t;
inline constexpr QueryNodeId kInvalidQueryNode = static_cast<QueryNodeId>(-1);

/// Immutable query-flow graph built from a log.
class QueryFlowGraph {
 public:
  struct Options {
    /// Consecutive submissions farther apart than this do not create an
    /// edge (the classic 30-minute session window prior).
    int64_t max_gap_seconds = 1800;
    /// Mixing weight of lexical affinity vs observed frequency in the
    /// chaining probability (0 = frequency only).
    double lexical_weight = 0.4;
  };

  struct Edge {
    QueryNodeId to = kInvalidQueryNode;
    uint32_t count = 0;        ///< raw transition count
    double chain_prob = 0.0;   ///< normalized chaining probability
  };

  /// Builds the graph by one pass over per-user chronological streams.
  static QueryFlowGraph Build(const QueryLog& log, const Options& options);

  /// Node id of a query string, or kInvalidQueryNode.
  QueryNodeId NodeOf(std::string_view query) const;

  /// Query string of a node.
  const std::string& QueryOf(QueryNodeId id) const { return queries_[id]; }

  size_t num_nodes() const { return queries_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Outgoing edges of a node (unsorted).
  const std::vector<Edge>& OutEdges(QueryNodeId id) const {
    return adjacency_[id];
  }

  /// Chaining probability of the transition q1 → q2; 0 when either query
  /// is unknown or no edge exists. This is the score the session
  /// segmenter thresholds on.
  double ChainingProbability(std::string_view q1, std::string_view q2) const;

  /// Jaccard similarity of the whitespace token sets of two queries —
  /// the lexical-affinity feature. Exposed for tests.
  static double LexicalAffinity(std::string_view q1, std::string_view q2);

 private:
  std::unordered_map<std::string, QueryNodeId> node_index_;
  std::vector<std::string> queries_;
  std::vector<std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace querylog
}  // namespace optselect

#endif  // OPTSELECT_QUERYLOG_QUERY_FLOW_GRAPH_H_
