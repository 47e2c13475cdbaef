#include "querylog/query_flow_graph.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace optselect {
namespace querylog {

double QueryFlowGraph::LexicalAffinity(std::string_view q1,
                                       std::string_view q2) {
  std::vector<std::string> t1 = util::SplitWhitespace(q1);
  std::vector<std::string> t2 = util::SplitWhitespace(q2);
  if (t1.empty() || t2.empty()) return 0.0;
  std::unordered_set<std::string> s1(t1.begin(), t1.end());
  std::unordered_set<std::string> s2(t2.begin(), t2.end());
  size_t inter = 0;
  for (const std::string& t : s1) inter += s2.count(t);
  size_t uni = s1.size() + s2.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

QueryFlowGraph QueryFlowGraph::Build(const QueryLog& log,
                                     const Options& options) {
  QueryFlowGraph g;

  auto intern = [&g](const std::string& q) -> QueryNodeId {
    auto it = g.node_index_.find(q);
    if (it != g.node_index_.end()) return it->second;
    QueryNodeId id = static_cast<QueryNodeId>(g.queries_.size());
    g.queries_.push_back(q);
    g.node_index_.emplace(q, id);
    g.adjacency_.emplace_back();
    return id;
  };

  // Raw counts: out_count[u][v], plus per-node totals including terminal
  // transitions (stream end or window break counts as terminal), so a
  // node's chaining probabilities leave room for abandoning the chain.
  std::vector<std::unordered_map<QueryNodeId, uint32_t>> counts;
  std::vector<uint32_t> total_counts;
  auto ensure = [&](QueryNodeId id) {
    if (counts.size() <= id) {
      counts.resize(id + 1);
      total_counts.resize(id + 1, 0);
    }
  };

  for (const std::vector<size_t>& stream : log.UserStreams()) {
    for (size_t i = 0; i < stream.size(); ++i) {
      const QueryRecord& cur = log.record(stream[i]);
      QueryNodeId u = intern(cur.query);
      ensure(u);
      bool chained = false;
      if (i + 1 < stream.size()) {
        const QueryRecord& nxt = log.record(stream[i + 1]);
        int64_t gap = nxt.timestamp - cur.timestamp;
        if (gap >= 0 && gap <= options.max_gap_seconds &&
            nxt.query != cur.query) {
          QueryNodeId v = intern(nxt.query);
          ensure(v);
          ++counts[u][v];
          ++total_counts[u];
          chained = true;
        } else if (gap >= 0 && gap <= options.max_gap_seconds) {
          // Identical resubmission: self-loops carry no reformulation
          // signal; treat as a continuation without an edge.
          chained = true;
        }
      }
      if (!chained) ++total_counts[u];
    }
  }

  ensure(static_cast<QueryNodeId>(
      g.queries_.empty() ? 0 : g.queries_.size() - 1));

  // Normalize into chaining probabilities, blending in lexical affinity.
  g.adjacency_.assign(g.queries_.size(), {});
  const double lw = options.lexical_weight;
  for (QueryNodeId u = 0; u < g.queries_.size(); ++u) {
    if (u >= counts.size() || total_counts[u] == 0) continue;
    double total = static_cast<double>(total_counts[u]);
    auto& edges = g.adjacency_[u];
    edges.reserve(counts[u].size());
    for (const auto& [v, c] : counts[u]) {
      Edge e;
      e.to = v;
      e.count = c;
      double freq = static_cast<double>(c) / total;
      double lex = LexicalAffinity(g.queries_[u], g.queries_[v]);
      e.chain_prob = (1.0 - lw) * freq + lw * lex;
      edges.push_back(e);
      ++g.num_edges_;
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
  }
  return g;
}

QueryNodeId QueryFlowGraph::NodeOf(std::string_view query) const {
  auto it = node_index_.find(std::string(query));
  return it == node_index_.end() ? kInvalidQueryNode : it->second;
}

double QueryFlowGraph::ChainingProbability(std::string_view q1,
                                           std::string_view q2) const {
  QueryNodeId u = NodeOf(q1);
  QueryNodeId v = NodeOf(q2);
  if (u == kInvalidQueryNode || v == kInvalidQueryNode) return 0.0;
  const auto& edges = adjacency_[u];
  auto it = std::lower_bound(
      edges.begin(), edges.end(), v,
      [](const Edge& e, QueryNodeId target) { return e.to < target; });
  if (it == edges.end() || it->to != v) return 0.0;
  return it->chain_prob;
}

}  // namespace querylog
}  // namespace optselect
